package repro.core

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
  */
object Optimizer {

  def optimize(p: Program, cat: Catalog, level: Int): Program = level match {
    case 0 => p
    case 1 => fix(p, "O1")(q => globalDce(localDce(q)))
    case 2 => fix(optimize(p, cat, 1), "O2")(q => globalDce(localDce(groupAggElim(q, cat))))
    case 3 => fix(optimize(p, cat, 2), "O3")(q => globalDce(localDce(groupAggElim(selfJoinElim(q, cat), cat))))
    case 4 =>
      val inlined = inlineRules(optimize(p, cat, 3))
      fix(inlined, "O4")(q => globalDce(localDce(groupAggElim(selfJoinElim(q, cat), cat))))
    case n => sys.error(s"optimizer: unknown level $n")
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
    * (not in the head, group, other atoms, or other assignments). */
  def localDce(p: Program): Program = p.copy(rules = p.rules.map(localDce))

  def localDce(r: Rule): Rule = {
    val used: Set[String] =
      r.head.cols.flatMap(_._2.vars).toSet ++ r.head.group ++
        r.body.flatMap {
          case AssignAtom(_, t) => t.vars
          case a                => a.allVars
        }
    val keep = r.body.filter {
      case AssignAtom(v, _) => used.contains(v)
      case _                => true
    }
    if (keep == r.body) r else localDce(r.copy(body = keep))
  }

  // ------------------------------------------------------------ global DCE
  /** Remove head columns of intermediate rules that no downstream rule
    * reads, and drop rules that nothing (transitively) depends on. */
  def globalDce(p: Program): Program = {
    // 1. Drop unreachable rules.
    val needed = scala.collection.mutable.Set[String](p.result)
    var changed = true
    while (changed) {
      changed = false
      for (r <- p.rules if needed(r.head.rel);
           ra <- r.body.flatMap(allRelAtoms) if !needed(ra.rel)) {
        needed += ra.rel; changed = true
      }
    }
    val live = p.rules.filter(r => needed(r.head.rel))

    // 2. Per intermediate relation, compute the set of used column positions.
    //    A position is used if any consumer reads its var (in a term, the
    //    head, group/sort) or uses it as a join variable (repeated binding).
    val rules = live.toArray
    def usedPositions(rel: String): Set[Int] = {
      val res = scala.collection.mutable.Set[Int]()
      // Term-level var references at any nesting depth (incl. exists bodies).
      def termVars(a: Atom): Seq[String] = a match {
        case AssignAtom(_, t)             => t.vars.toSeq
        case PredAtom(t)                  => t.vars.toSeq
        case RelAtom(_, _, Some((_, on))) => on.vars.toSeq
        case ExistsAtom(b, _)             => b.flatMap(termVars)
        case _                            => Seq.empty
      }
      for (r <- rules; atom <- r.body; ra <- allRelAtoms(atom) if ra.rel == rel) {
        // vars referenced anywhere in the rule other than as this atom's bare binding
        val counts = r.body.flatMap(allRelAtoms).flatMap(_.vars).groupBy(identity).map { case (k, v) => k -> v.size }
        val referenced: Set[String] =
          r.head.cols.flatMap(_._2.vars).toSet ++ r.head.group ++ r.body.flatMap(termVars)
        ra.vars.zipWithIndex.foreach { case (v, i) =>
          if (referenced.contains(v) || counts.getOrElse(v, 0) > 1) res += i
        }
      }
      res.toSet
    }

    // 3. Prune consumers before producers (rules are in dependency order), so
    //    that a column dropped from a consumer's head, with the assignments
    //    that only it read, frees the producer columns in the same call. Each
    //    consumer's access keeps only the remaining positions.
    for (i <- rules.indices.reverse if rules(i).head.rel != p.result) {
      val r = rules(i)
      val used = usedPositions(r.head.rel)
      if (used.nonEmpty && used.size < r.head.cols.size) {
        val keep = r.head.cols.indices.filter(used).toVector
        def fixAtom(a: Atom): Atom = a match {
          case ra: RelAtom if ra.rel == r.head.rel => ra.copy(vars = keep.map(ra.vars))
          case ExistsAtom(b, n)                    => ExistsAtom(b.map(fixAtom), n)
          case other                               => other
        }
        rules(i) = localDce(r.copy(head = r.head.copy(cols = keep.map(r.head.cols))))
        for (j <- rules.indices if rules(j).body.flatMap(allRelAtoms).exists(_.rel == r.head.rel))
          rules(j) = rules(j).copy(body = rules(j).body.map(fixAtom))
      }
    }
    p.copy(rules = rules.toVector)
  }

  // ---------------------------------------------- group-aggregate elimination
  /** If a rule groups by a column known to be unique (PK / UID / previous
    * group key), the grouping is a no-op: drop `group` and unwrap every
    * aggregate (`sum/min/max/avg(t) → t`, `count(*) → 1`). */
  def groupAggElim(p: Program, cat: Catalog): Program = {
    val uniq = uniqueColumns(p, cat)
    val rules = p.rules.map { r =>
      val singleRel = r.relAtoms.size == 1 && !r.hasOuter &&
        !r.body.exists(_.isInstanceOf[ExistsAtom])
      val groupUnique = r.head.group.nonEmpty && singleRel && {
        val ra = r.relAtoms.head
        r.head.group.exists { g =>
          val i = ra.vars.indexOf(g)
          i >= 0 && uniq.getOrElse(ra.rel, Set.empty).contains(i)
        }
      }
      if (!groupUnique) r
      else {
        def unwrap(t: Term): Term = t match {
          case TAgg("count", _, false) => TConst(1L)
          case TAgg(_, a, _)           => unwrap(a)
          case TIf(c, a, b)            => TIf(unwrap(c), unwrap(a), unwrap(b))
          case TBin(o, l, rr)          => TBin(o, unwrap(l), unwrap(rr))
          case TExt(f, as)             => TExt(f, as.map(unwrap))
          case x                       => x
        }
        r.copy(
          head = r.head.copy(group = Vector.empty,
                             cols = r.head.cols.map { case (n, t) => n -> unwrap(t) }),
          body = r.body.map { case AssignAtom(v, t) => AssignAtom(v, unwrap(t)); case a => a })
      }
    }
    p.copy(rules = rules)
  }

  /** Unique column positions per relation: catalog keys for base tables,
    * propagated through rule heads (group keys are unique in the result;
    * a bare projection of a unique column stays unique; UID() is unique). */
  def uniqueColumns(p: Program, cat: Catalog): Map[String, Set[Int]] = {
    val m = scala.collection.mutable.Map[String, Set[Int]]()
    for ((rel, cols) <- cat.schemas) {
      val u = cat.uniqueCols.getOrElse(rel, Set.empty)
      m(rel) = cols.zipWithIndex.collect { case (c, i) if u(c) => i }.toSet
    }
    for (r <- p.rules) {
      val assignOf = r.assigns.map(a => a.v -> a.t).toMap
      val bodyUnique: Set[String] =
        if (r.relAtoms.size == 1)
          r.relAtoms.head.vars.zipWithIndex.collect {
            case (v, i) if m.getOrElse(r.relAtoms.head.rel, Set.empty).contains(i) => v
          }.toSet
        else Set.empty
      val res = r.head.cols.zipWithIndex.collect {
        case ((_, TVar(v)), i)
          if (r.head.group.size == 1 && r.head.group.head == v) ||
             (r.head.group.isEmpty && bodyUnique.contains(v)) ||
             assignOf.get(v).exists { case TExt("uid", _) => true; case _ => false } => i
      }.toSet
      m(r.head.rel) = res
    }
    m.toMap
  }

  // -------------------------------------------------- self-join elimination
  /** Drop a duplicate access to the same relation when the two accesses are
    * joined on a unique column and neither is otherwise constrained: all
    * information of the second access is available from the first. */
  def selfJoinElim(p: Program, cat: Catalog): Program = {
    val uniq = uniqueColumns(p, cat)
    val rules = p.rules.map { r =>
      val atoms = r.relAtoms
      var body = r.body
      var subst = Map.empty[String, String]
      for (i <- atoms.indices; j <- (i + 1) until atoms.size) {
        val (a, b) = (atoms(i), atoms(j))
        if (a.rel == b.rel && a.outerOn.isEmpty && b.outerOn.isEmpty && body.contains(b)) {
          val joinPos = a.vars.zip(b.vars).zipWithIndex.collect { case ((x, y), k) if x == y => k }
          val onUnique = joinPos.exists(k => uniq.getOrElse(a.rel, Set.empty).contains(k))
          if (joinPos.nonEmpty && onUnique) {
            // substitute b's vars by a's, remove b
            subst = subst ++ b.vars.zip(a.vars).filter { case (x, y) => x != y }.toMap
            body = body.filterNot(_ eq b)
          }
        }
      }
      if (subst.isEmpty) r
      else {
        val f: String => String = v => subst.getOrElse(v, v)
        def fixAtom(at: Atom): Atom = at match {
          case RelAtom(rel, vs, o) => RelAtom(rel, vs.map(f), o.map { case (k, t) => (k, t.rename(f)) })
          case PredAtom(t)         => PredAtom(t.rename(f))
          case AssignAtom(v, t)    => AssignAtom(v, t.rename(f))
          case ExistsAtom(b2, n)   => ExistsAtom(b2.map(fixAtom), n)
          case ConstAtom(vs, rs)   => ConstAtom(vs.map(f), rs)
        }
        Rule(
          r.head.copy(cols = r.head.cols.map { case (n, t) => n -> t.rename(f) },
                      group = r.head.group.map(f)),
          body.map(fixAtom))
      }
    }
    p.copy(rules = rules)
  }

  // ----------------------------------------------------------- rule inlining
  /** A rule is a flow breaker (Table VII) if it aggregates, groups, is
    * DISTINCT, sorts/limits, contains an outer join, or is the sink rule. */
  def isFlowBreaker(r: Rule, p: Program): Boolean =
    r.hasAgg || r.head.distinct || r.head.sort.nonEmpty || r.head.limit.nonEmpty ||
      r.hasOuter || r.head.rel == p.result

  /** Fuse chains of non-flow-breaker rules into their (single) consumer.
    * Variables of the inlined body are renamed so head columns line up with
    * the consumer's positional binding; all other internal variables get
    * fresh names to respect relation-access renaming (§III-B). */
  def inlineRules(p: Program): Program = {
    val ng = new NameGen("il")
    var rules = p.rules
    var changed = true
    while (changed) {
      changed = false
      val prog = Program(rules, p.result)
      // count consumers of each relation (at any nesting depth)
      val consumers: Map[String, Int] = rules
        .flatMap(r => r.body.flatMap(allRelAtoms).map(_.rel))
        .groupBy(identity).map { case (k, v) => k -> v.size }
      // Relations accessed as the right side of an outer join cannot be
      // spliced (their filters must stay behind the join).
      val outerConsumed: Set[String] = rules.flatMap(r =>
        r.body.flatMap(allRelAtoms).collect { case RelAtom(rel, _, Some(_)) => rel }).toSet
      val candidate = rules.find { r =>
        !isFlowBreaker(r, prog) && consumers.getOrElse(r.head.rel, 0) == 1 &&
          !outerConsumed(r.head.rel) &&
          r.head.cols.forall { case (_, t) => !t.hasAgg }
      }
      candidate match {
        case None => ()
        case Some(prod) =>
          val rel = prod.head.rel
          rules = rules.filterNot(_ eq prod).map { cons =>
            if (!cons.body.flatMap(allRelAtoms).exists(_.rel == rel)) cons
            else spliceInto(cons, prod, ng)
          }
          changed = true
      }
    }
    p.copy(rules = rules)
  }

  /** Replace every access to `prod.head.rel` inside `cons` by `prod`'s body
    * (with renamed variables). */
  private def spliceInto(cons: Rule, prod: Rule, ng: NameGen): Rule = {
    def splice(atoms: Vector[Atom]): Vector[Atom] = atoms.flatMap {
      case ra @ RelAtom(rel, vars, outer) if rel == prod.head.rel =>
        require(outer.isEmpty, "cannot inline into outer-join access")
        // Build renaming: producer's head col i ↦ consumer var at position i.
        var ren = Map.empty[String, String]
        val extra = scala.collection.mutable.ArrayBuffer[Atom]()
        prod.head.cols.zipWithIndex.foreach { case ((_, t), i) =>
          t match {
            case TVar(v) =>
              ren.get(v) match {
                case Some(prev) if prev != vars(i) =>
                  // same producer var exported twice — equate consumer vars
                  extra += PredAtom(TBin("=", TVar(prev), TVar(vars(i))))
                case _ => ren += v -> vars(i)
              }
            case other =>
              // computed head column: emit an assignment to the consumer var
              extra += AssignAtom(vars(i), other) // renamed below
          }
        }
        // fresh names for all internal producer vars
        val internal = prod.body.flatMap(_.allVars).toSet -- ren.keySet
        val fresh = internal.map(v => v -> ng.fresh(v)).toMap
        val f: String => String = v => ren.getOrElse(v, fresh.getOrElse(v, v))
        def ren1(a: Atom): Atom = a match {
          case RelAtom(r2, vs, o) => RelAtom(r2, vs.map(f), o.map { case (k, t) => (k, t.rename(f)) })
          case PredAtom(t)        => PredAtom(t.rename(f))
          case AssignAtom(v, t)   => AssignAtom(f(v), t.rename(f))
          case ExistsAtom(b, n)   => ExistsAtom(b.map(ren1), n)
          case ConstAtom(vs, rs)  => ConstAtom(vs.map(f), rs)
        }
        prod.body.map(ren1) ++ extra.toVector.map(ren1)
      case ExistsAtom(b, n) => Vector(ExistsAtom(splice(b), n))
      case other            => Vector(other)
    }
    cons.copy(body = splice(cons.body))
  }
}
