package repro.core

import scala.collection.mutable
import TondIR._

/** TondIR optimizer (§IV).
  *
  * Five passes, stacked exactly as in the paper's Fig. 10 breakdown:
  *
  *  - '''O1''' local + global dead-code elimination
  *  - '''O2''' O1 + group-aggregate elimination
  *  - '''O3''' O2 + self-join elimination
  *  - '''O4''' O3 + rule inlining (flow breakers per Table VII)
  *
  * Level O0 is the identity — the "Grizzly-simulated" baseline of §V-A,
  * i.e. PyTond's translation output before any optimization.
  *
  * Every pass is one linear sweep over the program: the analyses it needs
  * (variable reference counts, used head positions, access counts, unique
  * columns) are computed once per call, never by rescanning all rules per
  * rule.
  */
object Optimizer {

  def optimize(p: Program, cat: Catalog, level: Int): Program = level match {
    case 0         => p
    case 1 | 2 | 3 => fix(optimize(p, cat, level - 1), s"O$level")(step(level, cat))
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

  // ------------------------------------------------- local DCE (per rule)
  /** Remove assignments whose variable is referenced nowhere in the rule
    * (not in the head, group, other atoms, or other live assignments). */
  def localDce(p: Program): Program = p.copy(rules = p.rules.map(localDce))

  /** References are counted once. Removing a var's assignments (all of them
    * together) releases the vars of their terms, and a var whose count drops
    * to zero is removed in turn. */
  def localDce(r: Rule): Rule = {
    val assigned = mutable.HashMap[String, List[Term]]()
    r.body.foreach { case AssignAtom(v, t) => assigned(v) = t :: assigned.getOrElse(v, Nil); case _ => }
    if (assigned.isEmpty) return r
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
    * pruned relation to the kept positions. */
  def globalDce(p: Program): Program = {
    val used = mutable.HashMap[String, mutable.BitSet]() // relation read by a live rule → used positions
    val keep = mutable.HashMap[String, Vector[Int]]()     // pruned relation → kept positions
    val rules = p.rules.toArray
    val live = new Array[Boolean](rules.length)
    for (i <- rules.indices.reverse if rules(i).head.rel == p.result || used.contains(rules(i).head.rel)) {
      val r = rules(i)
      live(i) = true
      val u = used.getOrElse(r.head.rel, mutable.BitSet.empty)
      if (r.head.rel != p.result && u.nonEmpty && u.size < r.head.cols.size) {
        keep(r.head.rel) = u.toVector
        rules(i) = localDce(r.copy(head = r.head.copy(cols = u.toVector.map(r.head.cols))))
      }
      recordUses(rules(i), used)
    }
    if (keep.isEmpty && live.forall(identity)) return p
    def reads(r: Rule): Boolean = { var hit = false; r.body.foreach(_.foreachRelAtom(ra => hit ||= keep.contains(ra.rel))); hit }
    def fixAtom(a: Atom): Atom = a match {
      case ra: RelAtom      => keep.get(ra.rel).fold(a)(k => ra.copy(vars = k.map(ra.vars)))
      case ExistsAtom(b, n) => ExistsAtom(b.map(fixAtom), n)
      case other            => other
    }
    p.copy(rules = rules.indices.collect {
      case i if live(i) => if (reads(rules(i))) rules(i).copy(body = rules(i).body.map(fixAtom)) else rules(i)
    }.toVector)
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
    * aggregate (`sum/min/max/avg(t) → t`, `count(*) → 1`). */
  def groupAggElim(p: Program, cat: Catalog): Program = {
    lazy val uniq = uniqueColumns(p, cat)
    def unwrap(t: Term): Term = t match {
      case TAgg("count", _, false) => TConst(1L)
      case TAgg(_, a, _)           => unwrap(a)
      case TIf(c, a, b)            => TIf(unwrap(c), unwrap(a), unwrap(b))
      case TBin(o, l, rr)          => TBin(o, unwrap(l), unwrap(rr))
      case TExt(f, as)             => TExt(f, as.map(unwrap))
      case x                       => x
    }
    p.copy(rules = p.rules.map { r =>
      val groupUnique = r.head.group.nonEmpty && r.relAtoms.size == 1 && !r.hasOuter &&
        !r.body.exists(_.isInstanceOf[ExistsAtom]) && {
          val ra = r.relAtoms.head
          r.head.group.exists(g => uniq.getOrElse(ra.rel, Set.empty).contains(ra.vars.indexOf(g)))
        }
      if (!groupUnique) r
      else r.copy(
        head = r.head.copy(group = Vector.empty, cols = r.head.cols.map { case (n, t) => n -> unwrap(t) }),
        body = r.body.map { case AssignAtom(v, t) => AssignAtom(v, unwrap(t)); case a => a })
    })
  }

  /** Unique column positions per relation: catalog keys for the base tables
    * the program reads, propagated through rule heads (group keys are unique
    * in the result; a bare projection of a unique column stays unique; UID()
    * is unique). */
  def uniqueColumns(p: Program, cat: Catalog): Map[String, Set[Int]] = {
    val m = mutable.HashMap[String, Set[Int]]()
    for (r <- p.rules) {
      val ras = r.relAtoms
      for (ra <- ras if !m.contains(ra.rel); cols <- cat.schemas.get(ra.rel)) {
        val u = cat.uniqueCols.getOrElse(ra.rel, Set.empty[String])
        m(ra.rel) = cols.indices.filter(i => u(cols(i))).toSet
      }
      val assignOf = r.assigns.map(a => a.v -> a.t).toMap
      val bodyUnique: Set[String] = if (ras.size != 1) Set.empty else {
        val u = m.getOrElse(ras.head.rel, Set.empty[Int])
        ras.head.vars.indices.filter(u).map(ras.head.vars).toSet
      }
      m(r.head.rel) = r.head.cols.zipWithIndex.collect {
        case ((_, TVar(v)), i)
          if (r.head.group.size == 1 && r.head.group.head == v) ||
             (r.head.group.isEmpty && bodyUnique.contains(v)) ||
             assignOf.get(v).exists { case TExt("uid", _) => true; case _ => false } => i
      }.toSet
    }
    m.toMap
  }

  // -------------------------------------------------- self-join elimination
  /** Drop a duplicate access to the same relation when the two accesses are
    * joined on a unique column and neither is otherwise constrained: all
    * information of the second access is available from the first. */
  def selfJoinElim(p: Program, cat: Catalog): Program = {
    lazy val uniq = uniqueColumns(p, cat)
    p.copy(rules = p.rules.map { r =>
      val atoms = r.relAtoms
      var body = r.body
      var subst = Map.empty[String, String]
      for (i <- atoms.indices; j <- (i + 1) until atoms.size) {
        val (a, b) = (atoms(i), atoms(j))
        if (a.rel == b.rel && a.outerOn.isEmpty && b.outerOn.isEmpty && body.contains(b)) {
          val joinPos = a.vars.zip(b.vars).zipWithIndex.collect { case ((x, y), k) if x == y => k }
          if (joinPos.exists(k => uniq.getOrElse(a.rel, Set.empty).contains(k))) {
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
    })
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

  /** Replace every access to `prod.head.rel` inside `cons` by `prod`'s body
    * (with renamed variables). A computed head column becomes an assignment
    * to the consumer's var, or an equality where that var is a join variable
    * of its level (a join on a computed column; an assignment there would be
    * shadowed). */
  private def spliceInto(cons: Rule, prod: Rule, ng: NameGen): Rule = {
    def splice(s: Scope): Vector[Atom] = s.atoms.flatMap {
      case RelAtom(rel, vars, outer) if rel == prod.head.rel =>
        require(outer.isEmpty, "cannot inline into outer-join access")
        // Build renaming: producer's head col i ↦ consumer var at position i.
        var ren = Map.empty[String, String]
        val extra = mutable.ArrayBuffer[Atom]()
        prod.head.cols.zipWithIndex.foreach {
          case ((_, TVar(v)), i) =>
            ren.get(v) match {
              case Some(prev) if prev != vars(i) =>
                // same producer var exported twice — equate consumer vars
                extra += PredAtom(TBin("=", TVar(prev), TVar(vars(i))))
              case _ => ren += v -> vars(i)
            }
          case ((_, t), i) => // renamed below
            extra += (if (s.isJoinVar(vars(i))) PredAtom(TBin("=", TVar(vars(i)), t)) else AssignAtom(vars(i), t))
        }
        // fresh names for all internal producer vars
        val internal = prod.body.flatMap(_.allVars).toSet -- ren.keySet
        val fresh = internal.map(v => v -> ng.fresh(v)).toMap
        val f: String => String = v => ren.getOrElse(v, fresh.getOrElse(v, v))
        prod.body.map(_.rename(f)) ++ extra.toVector.map(_.rename(f))
      case e @ ExistsAtom(_, n) => Vector(ExistsAtom(splice(s.sub(e)), n))
      case other                => Vector(other)
    }
    cons.copy(body = splice(new Scope(cons.body)))
  }
}
