package repro.core

import scala.collection.mutable
import TondIR._

/** TondIR optimizer (§IV).
  *
  * Four levels, one per bar of the paper's Fig. 10 breakdown, each adding a
  * pass to the one below:
  *
  *  - '''O1''' local + global dead-code elimination
  *  - '''O2''' O1 + group-aggregate elimination
  *  - '''O3''' O2 + self-join elimination
  *  - '''O4''' O3 + rule inlining (flow breakers per Table VII)
  *
  * Each of O1..O3 is the fixpoint of its own step, run from the lowered
  * program; O4 is the fixpoint of its step run from the inlined O3 program.
  * Level O0 is the identity — the "Grizzly-simulated" baseline of §V-A,
  * i.e. PyTond's translation output before any optimization.
  *
  * Every pass is one linear sweep over the program: the analyses it needs
  * (variable reference counts, used head positions, access counts, unique
  * columns) are computed once per call, never by rescanning all rules per
  * rule. A pass returns a rule it does not change, and a program none of
  * whose rules it changes, as it was given.
  */
object Optimizer {

  def optimize(p: Program, cat: Catalog, level: Int): Program = level match {
    case 0         => p
    case 1 | 2 | 3 => fix(p, s"O$level")(step(level, cat))
    case 4         => fix(inlineRules(optimize(p, cat, 3)), "O4")(step(4, cat))
    case n         => sys.error(s"optimizer: unknown level $n")
  }

  /** One step of level `level`'s fixpoint: self-join elimination (O3, O4),
    * group-aggregate elimination (O2+), then local and global DCE. */
  private[core] def step(level: Int, cat: Catalog)(p: Program): Program = {
    val sj = if (level >= 3) selfJoinElim(p, cat) else p
    globalDce(localDce(if (level >= 2) groupAggElim(sj, cat) else sj))
  }

  /** Apply `step` until the program stops changing; a pass that has not
    * converged after 10 steps is a bug, reported with its last program. */
  private[core] def fix(p: Program, pass: String)(step: Program => Program): Program = {
    var cur = p
    for (_ <- 1 to 10) {
      val next = step(cur)
      if (next == cur) return cur
      cur = next
    }
    sys.error(s"optimizer: pass $pass did not converge in 10 steps; last program:\n${show(cur)}")
  }

  /** `p` with `f` applied to each rule; `p` itself if `f` returns every rule as it was. */
  private def mapRules(p: Program)(f: Rule => Rule): Program = {
    var out: Array[Rule] = null
    for (i <- p.rules.indices) {
      val r = p.rules(i)
      val next = f(r)
      if ((out eq null) && !(next eq r)) out = p.rules.toArray
      if (out ne null) out(i) = next
    }
    if (out eq null) p else p.copy(rules = out.toVector)
  }

  /** The one top-level relation atom of `r`'s body, if it has exactly one
    * and no VALUES atom of more than one row (which would repeat each of its
    * rows): the body's rows are then that relation's rows. */
  private def soleRelAtom(r: Rule): Option[RelAtom] = {
    var sole: Option[RelAtom] = None
    var n = 0
    r.body.foreach {
      case ra: RelAtom                         => sole = Some(ra); n += 1
      case ConstAtom(_, rows) if rows.size > 1 => n += 2
      case _                                   =>
    }
    if (n == 1) sole else None
  }

  // ------------------------------------------------- local DCE (per rule)
  /** Remove assignments whose variable is referenced nowhere in the rule
    * (not in the head, group, other atoms, or other live assignments). */
  def localDce(p: Program): Program = mapRules(p)(localDce)

  /** References are counted once. Removing a var's assignments (all of them
    * together) releases the vars of their terms, and a var whose count drops
    * to zero is removed in turn. */
  def localDce(r: Rule): Rule = {
    if (!r.body.exists(_.isInstanceOf[AssignAtom])) return r
    val assigned = mutable.HashMap[String, List[Term]]()
    r.body.foreach { case AssignAtom(v, t) => assigned(v) = t :: assigned.getOrElse(v, Nil); case _ => }
    val refs = mutable.HashMap[String, Int]()
    val ref: String => Unit = v => refs(v) = refs.getOrElse(v, 0) + 1
    r.head.cols.foreach(_._2.foreachVar(ref))
    r.head.group.foreach(ref)
    r.body.foreach { case AssignAtom(_, t) => t.foreachVar(ref); case a => a.foreachVar(ref) }
    val dead = mutable.HashSet[String]()
    val work = mutable.Stack.from(assigned.keys.filterNot(refs.contains))
    while (work.nonEmpty) {
      val v = work.pop()
      dead += v
      assigned(v).foreach(_.foreachVar { u => refs(u) -= 1; if (refs(u) == 0 && assigned.contains(u)) work.push(u) })
    }
    if (dead.isEmpty) r
    else r.copy(body = r.body.filter { case AssignAtom(v, _) => !dead(v); case _ => true })
  }

  // ------------------------------------------------------------ global DCE
  /** Remove head columns of intermediate rules that no downstream rule
    * reads, and drop rules that nothing (transitively) depends on.
    *
    * One backward sweep over the rules, which are in dependency order: a
    * rule that no later live rule reads is dead; a live rule other than the
    * result keeps only the head positions its consumers use (all of them if
    * they use none) and is then local-DCE'd; then its own uses of its
    * producers are recorded. A forward pass rewrites every access to a
    * pruned relation to the kept positions. A rule that reads only base
    * tables records nothing: a base table heads no rule, so its used
    * positions are never read. */
  def globalDce(p: Program): Program = {
    val used = mutable.HashMap[String, mutable.BitSet]() // relation read by a live rule → used positions
    val keep = mutable.HashMap[String, Vector[Int]]()     // pruned relation → kept positions
    val rules = p.rules.toArray
    val derived = mutable.HashSet[String]()
    rules.foreach(derived += _.head.rel)
    val live = new Array[Boolean](rules.length)
    for (i <- rules.indices.reverse if rules(i).head.rel == p.result || used.contains(rules(i).head.rel)) {
      val r = rules(i)
      live(i) = true
      val u = used.getOrElse(r.head.rel, mutable.BitSet.empty)
      if (r.head.rel != p.result && u.nonEmpty && u.size < r.head.cols.size) {
        keep(r.head.rel) = u.toVector
        rules(i) = localDce(r.copy(head = r.head.copy(cols = u.toVector.map(r.head.cols))))
      }
      if (readsAny(rules(i), derived)) recordUses(rules(i), used)
    }
    if (keep.isEmpty && live.forall(identity)) return p
    val pruned = keep.keySet
    def fixAtom(a: Atom): Atom = a match {
      case ra: RelAtom      => keep.get(ra.rel).fold(a)(k => ra.copy(vars = k.map(ra.vars)))
      case ExistsAtom(b, n) => ExistsAtom(b.map(fixAtom), n)
      case other            => other
    }
    p.copy(rules = rules.indices.collect {
      case i if live(i) => if (readsAny(rules(i), pruned)) rules(i).copy(body = rules(i).body.map(fixAtom)) else rules(i)
    }.toVector)
  }

  /** True iff `r` reads one of `rels` at any depth. */
  private def readsAny(r: Rule, rels: collection.Set[String]): Boolean = {
    var hit = false
    r.body.foreach(_.foreachRelAtom(ra => hit ||= rels(ra.rel)))
    hit
  }

  /** Record which positions of each relation `r` reads it uses: a position
    * is used if its var is referenced in a term, the head or the group at any
    * depth, or is a join variable of one of `r`'s body levels (see
    * [[TondIR.Scope]]). */
  private def recordUses(r: Rule, used: mutable.HashMap[String, mutable.BitSet]): Unit = {
    val needed = mutable.HashSet[String]()
    val add: String => Unit = needed += _
    r.head.cols.foreach(_._2.foreachVar(add))
    r.head.group.foreach(add)
    def level(s: Scope): Unit = {
      s.foreachJoinVar(add)
      s.atoms.foreach {
        case RelAtom(_, _, on) => on.foreach(_._2.foreachVar(add))
        case AssignAtom(_, t)  => t.foreachVar(add)
        case PredAtom(t)       => t.foreachVar(add)
        case e: ExistsAtom     => level(s.sub(e))
        case _: ConstAtom      =>
      }
    }
    level(new Scope(r.body))
    val mark: RelAtom => Unit = { ra =>
      val u = used.getOrElseUpdate(ra.rel, mutable.BitSet())
      ra.vars.indices.foreach(i => if (needed(ra.vars(i))) u += i)
    }
    r.body.foreach(_.foreachRelAtom(mark))
  }

  // ---------------------------------------------- group-aggregate elimination
  /** If a rule groups by a column known to be unique (PK / UID / previous
    * group key), the grouping is a no-op: drop `group` and unwrap every
    * aggregate (`sum/min/max/avg(t) → t`, `count(*) → 1`). The rule's body
    * must read that column's relation alone (see `soleRelAtom`), with no
    * outer join and no `exists`. */
  def groupAggElim(p: Program, cat: Catalog): Program = {
    lazy val unique = uniqueColumns(p, cat)
    def unwrap(t: Term): Term = t match {
      case TAgg("count", _, false) => TConst(1L)
      case TAgg(_, a, _)           => unwrap(a)
      case TIf(c, a, b)            => TIf(unwrap(c), unwrap(a), unwrap(b))
      case TBin(o, l, rr)          => TBin(o, unwrap(l), unwrap(rr))
      case TExt(f, as)             => TExt(f, as.map(unwrap))
      case x                       => x
    }
    mapRules(p) { r =>
      val groupUnique = r.head.group.nonEmpty && !r.body.exists(_.isInstanceOf[ExistsAtom]) &&
        soleRelAtom(r).exists(ra => ra.outerOn.isEmpty && r.head.group.exists(g => unique(ra.rel, ra.vars.indexOf(g))))
      if (!groupUnique) r
      else r.copy(
        head = r.head.copy(group = Vector.empty, cols = r.head.cols.map { case (n, t) => n -> unwrap(t) }),
        body = r.body.map { case AssignAtom(v, t) => AssignAtom(v, unwrap(t)); case a => a })
    }
  }

  /** Unique column positions: `uniqueColumns(p, cat)(rel, k)` is true iff
    * column `k` of `rel` is known to be unique. A base table's are its
    * catalog keys. A rule's head column is unique if it is the rule's only
    * group key, if the rule does not group and the column passes through a
    * unique column of the body's sole relation atom (see `soleRelAtom`), or
    * if it is assigned UID(). */
  def uniqueColumns(p: Program, cat: Catalog): (String, Int) => Boolean = {
    val derived = mutable.HashMap[String, Set[Int]]()
    def unique(rel: String, k: Int): Boolean = derived.get(rel) match {
      case Some(u) => u(k)
      case None    => cat.schemas.get(rel).exists(cols =>
        k >= 0 && k < cols.size && cat.uniqueCols.get(rel).exists(_(cols(k))))
    }
    for (r <- p.rules) {
      val h = r.head
      lazy val sole = if (h.group.isEmpty) soleRelAtom(r) else None
      def uniqueVar(v: String): Boolean =
        (h.group.size == 1 && h.group.head == v) ||
          sole.exists(ra => ra.vars.indices.exists(k => ra.vars(k) == v && unique(ra.rel, k))) ||
          r.body.findLast { case AssignAtom(`v`, _) => true; case _ => false }
            .exists { case AssignAtom(_, TExt("uid", _)) => true; case _ => false }
      derived(h.rel) = h.cols.indices.filter(i => h.cols(i)._2 match { case TVar(v) => uniqueVar(v); case _ => false }).toSet
    }
    unique
  }

  // -------------------------------------------------- self-join elimination
  /** Drop a duplicate access to the same relation when the two accesses are
    * joined on a unique column and neither is otherwise constrained: all
    * information of the second access is available from the first. */
  def selfJoinElim(p: Program, cat: Catalog): Program = {
    lazy val unique = uniqueColumns(p, cat)
    mapRules(p) { r =>
      val atoms = r.relAtoms
      var body = r.body
      var subst = Map.empty[String, String]
      for (i <- atoms.indices; j <- (i + 1) until atoms.size) {
        val (a, b) = (atoms(i), atoms(j))
        if (a.rel == b.rel && a.outerOn.isEmpty && b.outerOn.isEmpty && body.contains(b)) {
          val joinPos = a.vars.zip(b.vars).zipWithIndex.collect { case ((x, y), k) if x == y => k }
          if (joinPos.exists(unique(a.rel, _))) {
            // substitute b's vars by a's, remove b
            subst = subst ++ b.vars.zip(a.vars).filter { case (x, y) => x != y }.toMap
            body = body.filterNot(_ eq b)
          }
        }
      }
      if (subst.isEmpty) r
      else {
        val f: String => String = v => subst.getOrElse(v, v)
        Rule(r.head.copy(cols = r.head.cols.map { case (n, t) => n -> t.rename(f) }, group = r.head.group.map(f)),
             body.map(_.rename(f)))
      }
    }
  }

  // ----------------------------------------------------------- rule inlining
  /** A rule is a flow breaker (Table VII) if it aggregates, groups, is
    * DISTINCT, sorts/limits, contains an outer join, or is the sink rule —
    * or assigns `uid`, a window that numbers its own input rows (spliced
    * under a consumer's filter or join, it would number other rows). */
  def isFlowBreaker(r: Rule, p: Program): Boolean =
    r.hasAgg || r.head.distinct || r.head.sort.nonEmpty || r.head.limit.nonEmpty ||
      r.hasOuter || r.head.rel == p.result ||
      r.body.exists { case AssignAtom(_, TExt("uid", _)) => true; case _ => false }

  /** Fuse chains of non-flow-breaker rules into their (single) consumer.
    * Variables of the inlined body are renamed so head columns line up with
    * the consumer's positional binding; all other internal variables get
    * fresh names to respect relation-access renaming (§III-B).
    *
    * Access counts, outer-join reads and each relation's consumer are
    * computed once: splicing a single-consumer producer moves its accesses
    * into the consumer, so no count changes and no rule's eligibility does.
    * Eligible rules are spliced in program order. */
  def inlineRules(p: Program): Program = {
    val rules = p.rules.toArray
    val accesses = mutable.HashMap[String, Int]() // at any nesting depth
    // Relations accessed as the right side of an outer join cannot be
    // spliced (their filters must stay behind the join).
    val outerRead = mutable.HashSet[String]()
    val consumer = mutable.HashMap[String, Int]() // relation → index of the rule reading it
    for (i <- rules.indices) rules(i).body.foreach(_.foreachRelAtom { ra =>
      accesses(ra.rel) = accesses.getOrElse(ra.rel, 0) + 1
      if (ra.outerOn.nonEmpty) outerRead += ra.rel
      consumer(ra.rel) = i
    })
    val ng = new NameGen("il")
    val spliced = new Array[Boolean](rules.length)
    for (i <- rules.indices) {
      val prod = rules(i)
      val rel = prod.head.rel
      if (!isFlowBreaker(prod, p) && accesses.getOrElse(rel, 0) == 1 && !outerRead(rel) &&
          prod.head.cols.forall { case (_, t) => !t.hasAgg }) {
        val c = consumer(rel)
        rules(c) = spliceInto(rules(c), prod, ng)
        prod.body.foreach(_.foreachRelAtom(ra => consumer(ra.rel) = c))
        spliced(i) = true
      }
    }
    if (!spliced.contains(true)) p
    else p.copy(rules = rules.indices.collect { case i if !spliced(i) => rules(i) }.toVector)
  }

  /** Replace the one access to `prod.head.rel` inside `cons` by `prod`'s body
    * (with renamed variables). A computed head column becomes an assignment
    * to the consumer's var, or an equality where that var is a join variable
    * of its level (a join on a computed column; an assignment there would be
    * shadowed). Only the body levels on the way to the access are rebuilt. */
  private def spliceInto(cons: Rule, prod: Rule, ng: NameGen): Rule = {
    val rel = prod.head.rel
    def reads(e: ExistsAtom): Boolean = { var hit = false; e.foreachRelAtom(ra => hit ||= ra.rel == rel); hit }
    def splice(s: Scope): Vector[Atom] = {
      val out = Vector.newBuilder[Atom]
      s.atoms.foreach {
        case RelAtom(`rel`, vars, outer) =>
          require(outer.isEmpty, "cannot inline into outer-join access")
          out ++= instance(s, vars, prod, ng)
        case e: ExistsAtom if reads(e) => out += ExistsAtom(splice(s.sub(e)), e.negated)
        case other                     => out += other
      }
      out.result()
    }
    cons.copy(body = splice(new Scope(cons.body)))
  }

  /** `prod`'s body read at level `s` with its head columns bound to `vars`:
    * head column i's producer var is renamed to `vars(i)`, and every other
    * producer var gets a fresh name. */
  private def instance(s: Scope, vars: Vector[String], prod: Rule, ng: NameGen): Vector[Atom] = {
    val ren = mutable.HashMap[String, String]()
    val extra = Vector.newBuilder[Atom]
    for (i <- prod.head.cols.indices) prod.head.cols(i)._2 match {
      case TVar(v) =>
        ren.get(v) match {
          case Some(prev) if prev != vars(i) =>
            // same producer var exported twice — equate consumer vars
            extra += PredAtom(TBin("=", TVar(prev), TVar(vars(i))))
          case _ => ren(v) = vars(i)
        }
      case t => // renamed below
        extra += (if (s.isJoinVar(vars(i))) PredAtom(TBin("=", TVar(vars(i)), t)) else AssignAtom(vars(i), t))
    }
    // Fresh names are numbered in the iteration order of the (immutable) set
    // of the producer's other vars.
    val all = Set.newBuilder[String]
    prod.body.foreach(_.foreachVar(all += _))
    val fresh = mutable.HashMap[String, String]()
    (all.result() -- ren.keys).foreach(v => fresh(v) = ng.fresh(v))
    val f: String => String = v => ren.getOrElse(v, fresh.getOrElse(v, v))
    prod.body.map(_.rename(f)) ++ extra.result().map(_.rename(f))
  }
}
