package repro.core

/** TondIR — the Datalog-inspired intermediate representation of PyTond
  * (paper Table IV).
  *
  * A [[Program]] is a list of [[Rule]]s; each rule derives a relation from a
  * body of [[Atom]]s. Column names are bound positionally in heads; joins are
  * expressed Datalog-style by repeating a variable name across relation
  * accesses. Assignments `(x = t)` define computed columns, predicates
  * `(t)` filter, `exists(B)` / `not exists(B)` express semi/anti joins, and
  * outer-join markers carry the `outer_left/right/full` external atoms of
  * §III-C.
  */
object TondIR {

  // ------------------------------------------------------------------ terms
  sealed trait Term {
    /** All variable names referenced by this term. */
    def vars: Set[String] = {
      val b = Set.newBuilder[String]
      foreachVar(b += _)
      b.result()
    }

    /** Apply `f` to every variable occurrence, left to right. */
    def foreachVar(f: String => Unit): Unit = this match {
      case TVar(n)       => f(n)
      case TConst(_)     => ()
      case TAgg(_, a, _) => a.foreachVar(f)
      case TExt(_, as)   => as.foreach(_.foreachVar(f))
      case TIf(c, t, e)  => c.foreachVar(f); t.foreachVar(f); e.foreachVar(f)
      case TBin(_, l, r) => l.foreachVar(f); r.foreachVar(f)
    }

    /** True iff an aggregation appears anywhere in this term. */
    def hasAgg: Boolean = this match {
      case TAgg(_, _, _) => true
      case TIf(c, t, e)  => c.hasAgg || t.hasAgg || e.hasAgg
      case TBin(_, l, r) => l.hasAgg || r.hasAgg
      case TExt(_, as)   => as.exists(_.hasAgg)
      case _             => false
    }

    /** Rename variables via `f` (identity for names not in the map domain). */
    def rename(f: String => String): Term = this match {
      case TVar(n)        => TVar(f(n))
      case c: TConst      => c
      case TAgg(g, a, d)  => TAgg(g, a.rename(f), d)
      case TExt(g, as)    => TExt(g, as.map(_.rename(f)))
      case TIf(c, t, e)   => TIf(c.rename(f), t.rename(f), e.rename(f))
      case TBin(o, l, r)  => TBin(o, l.rename(f), r.rename(f))
    }
  }

  /** Variable access. */
  final case class TVar(name: String) extends Term
  /** Constant: Long/Double/Boolean/String/java.time.LocalDate or null. */
  final case class TConst private (v: Any) extends Term
  object TConst {
    /** The one place an `Int` literal becomes a `Long`. */
    def apply(v: Any): TConst = new TConst(v match { case i: Int => i.toLong; case x => x })
  }
  /** Aggregation over a term: sum/min/max/avg/count (optionally DISTINCT). */
  final case class TAgg(fn: String, arg: Term, distinct: Boolean = false) extends Term
  /** External function call: uid, year or substr, and `list` as the right
    * side of `in`. */
  final case class TExt(fn: String, args: Seq[Term]) extends Term
  /** Conditional `if(c, t, e)`. */
  final case class TIf(c: Term, t: Term, e: Term) extends Term
  /** Binary op: arithmetic + - * /, comparisons = <> < <= > >=,
    * and/or, like/notlike, in (right side is a TExt("list", …)). */
  final case class TBin(op: String, l: Term, r: Term) extends Term

  // ------------------------------------------------------------------ atoms
  sealed trait Atom {
    /** Apply `f` to every variable occurrence, at any depth (an assignment's
      * target after its term). */
    def foreachVar(f: String => Unit): Unit = this match {
      case RelAtom(_, vs, on) => vs.foreach(f); on.foreach(_._2.foreachVar(f))
      case ConstAtom(vs, _)   => vs.foreach(f)
      case PredAtom(t)        => t.foreachVar(f)
      case AssignAtom(v, t)   => t.foreachVar(f); f(v)
      case ExistsAtom(b, _)   => b.foreach(_.foreachVar(f))
    }

    /** Apply `f` to every relation atom, inside `exists` bodies too. */
    def foreachRelAtom(f: RelAtom => Unit): Unit = this match {
      case r: RelAtom       => f(r)
      case ExistsAtom(b, _) => b.foreach(_.foreachRelAtom(f))
      case _                => ()
    }

    /** Rename every variable, at any depth, through `f`. */
    def rename(f: String => String): Atom = this match {
      case RelAtom(rel, vs, o) => RelAtom(rel, vs.map(f), o.map { case (k, t) => (k, t.rename(f)) })
      case ConstAtom(vs, rs)   => ConstAtom(vs.map(f), rs)
      case PredAtom(t)         => PredAtom(t.rename(f))
      case AssignAtom(v, t)    => AssignAtom(f(v), t.rename(f))
      case ExistsAtom(b, n)    => ExistsAtom(b.map(_.rename(f)), n)
    }
  }

  /** Access to relation `rel`, binding its columns positionally to `vars`.
    * `outerOn` marks this access as the right side of an outer join
    * (kind ∈ {left, right, full}) with an explicit ON condition — the
    * `outer_*` external atoms of §III-C. */
  final case class RelAtom(rel: String, vars: Vector[String],
                           outerOn: Option[(String, Term)] = None) extends Atom

  /** Constant inline relation (`VALUES`): one var per column. */
  final case class ConstAtom(vars: Vector[String], rows: Vector[Vector[TConst]]) extends Atom

  /** Filter predicate `(t)` — boolean term over bound variables. */
  final case class PredAtom(t: Term) extends Atom

  /** Assignment `(v = t)` introducing a fresh variable. */
  final case class AssignAtom(v: String, t: Term) extends Atom

  /** Existential (or negated-existential) filter over a sub-body. Variables
    * shared with the enclosing rule correlate the subquery. */
  final case class ExistsAtom(body: Vector[Atom], negated: Boolean = false) extends Atom

  // ------------------------------------------------------------------ rules
  /** Rule head: derived relation name, output columns (name → term, usually a
    * TVar), optional group-by variable list, DISTINCT flag, and sort/limit
    * (sort keys are output column names). */
  final case class Head(rel: String,
                        cols: Vector[(String, Term)],
                        group: Vector[String] = Vector.empty,
                        distinct: Boolean = false,
                        sort: Vector[(String, Boolean)] = Vector.empty,
                        limit: Option[Long] = None) {
    def colNames: Vector[String] = cols.map(_._1)
  }

  final case class Rule(head: Head, body: Vector[Atom]) {
    def relAtoms: Vector[RelAtom] = body.collect { case r: RelAtom => r }
    def assigns:  Vector[AssignAtom] = body.collect { case a: AssignAtom => a }
    /** True iff this rule aggregates (group clause or agg term anywhere). */
    def hasAgg: Boolean =
      head.group.nonEmpty || head.cols.exists(_._2.hasAgg) ||
        body.exists { case AssignAtom(_, t) => t.hasAgg; case _ => false }
    def hasOuter: Boolean = body.exists { case RelAtom(_, _, o) => o.nonEmpty; case _ => false }
  }

  /** A program: ordered rules plus the name of the result relation (the last
    * rule's head unless stated otherwise). Base relations are any referenced
    * relation with no defining rule. */
  final case class Program(rules: Vector[Rule], result: String) {
    def defining(rel: String): Option[Rule] = rules.reverseIterator.find(_.head.rel == rel)
  }

  /** Rel atoms at any nesting depth (including inside exists bodies). */
  def allRelAtoms(a: Atom): Vector[RelAtom] = {
    val b = Vector.newBuilder[RelAtom]
    a.foreachRelAtom(b += _)
    b.result()
  }

  // ------------------------------------------------------------------ scopes
  /** Where the variables of one body level (a rule body, or an `exists` body
    * inside the level `outer`) are bound: the IR's one definition of binding.
    * A term may read a variable bound at its level or an enclosing one
    * (Datalog's range restriction). A ''join variable'' of a level is bound
    * by relation or VALUES atoms twice there, or once there while an
    * enclosing level binds it too (by any atom). */
  final class Scope(val atoms: Vector[Atom], val outer: Option[Scope] = None) {
    /** Variables bound by relation and VALUES atoms at this level → how often. */
    lazy val binds: collection.Map[String, Int] = {
      val m = scala.collection.mutable.HashMap[String, Int]()
      val bind: String => Unit = v => m(v) = m.getOrElse(v, 0) + 1
      atoms.foreach { case RelAtom(_, vs, _) => vs.foreach(bind); case ConstAtom(vs, _) => vs.foreach(bind); case _ => }
      m
    }
    lazy val assignOf: Map[String, Term] = atoms.collect { case AssignAtom(v, t) => v -> t }.toMap
    /** True iff `v` is bound, by any atom, at this level or an enclosing one. */
    def sees(v: String): Boolean = binds.contains(v) || assignOf.contains(v) || outer.exists(_.sees(v))
    /** True iff relation or VALUES atoms bind `v` at this level or an enclosing one. */
    def bindsRel(v: String): Boolean = binds.contains(v) || outer.exists(_.bindsRel(v))
    def isJoinVar(v: String): Boolean = { val n = binds.getOrElse(v, 0); n > 1 || n == 1 && outer.exists(_.sees(v)) }
    def foreachJoinVar(f: String => Unit): Unit = binds.foreachEntry((v, _) => if (isJoinVar(v)) f(v))
    /** The scope of `e`'s body, an `exists` atom of this level. */
    def sub(e: ExistsAtom): Scope = new Scope(e.body, Some(this))
    /** For an `exists` body: its one correlation key, if it correlates with
      * the enclosing levels only by equality on one variable. That variable
      * is bound here by relation or VALUES atoms, and no other variable an
      * enclosing level sees occurs in this body at any depth (in a
      * predicate, an assignment, an outer-join condition or a nested
      * `exists`). */
    def semiJoinKey: Option[String] = outer.flatMap { o =>
      var key: String = null
      var single = true
      atoms.foreach(_.foreachVar(v => if (single && o.sees(v)) { if (key == null) key = v else if (v != key) single = false }))
      if (single && key != null && binds.contains(key)) Some(key) else None
    }
  }

  // --------------------------------------------------------------- printing
  /** Human-readable Datalog-ish rendering (used in tests and debugging). */
  def show(t: Term): String = t match {
    case TVar(n)           => n
    case TConst(s: String) => "\"" + s + "\""
    case TConst(v)         => String.valueOf(v)
    case TAgg(f, a, d)     => s"$f(${if (d) "distinct " else ""}${show(a)})"
    case TExt(f, as)       => s"$f(${as.map(show).mkString(", ")})"
    case TIf(c, a, b)      => s"if(${show(c)}, ${show(a)}, ${show(b)})"
    case TBin(o, l, r)     => s"(${show(l)} $o ${show(r)})"
  }

  def show(a: Atom): String = a match {
    case RelAtom(r, vs, None)          => s"$r(${vs.mkString(", ")})"
    case RelAtom(r, vs, Some((k, on))) => s"outer_$k[$r(${vs.mkString(", ")}) on ${show(on)}]"
    case ConstAtom(vs, rows) =>
      s"<${vs.mkString(",")}>=[${rows.map(_.map(show).mkString("(", ",", ")")).mkString(",")}]"
    case PredAtom(t)        => s"(${show(t)})"
    case AssignAtom(v, t)   => s"($v = ${show(t)})"
    case ExistsAtom(b, neg) => s"${if (neg) "not " else ""}exists(${b.map(show).mkString(", ")})"
  }

  def show(r: Rule): String = {
    val h = r.head
    val mods = (if (h.distinct) " distinct" else "") +
      (if (h.group.nonEmpty) s" group(${h.group.mkString(", ")})" else "") +
      (if (h.sort.nonEmpty)
         s" sort(${h.sort.map { case (c, asc) => (if (asc) "" else "-") + c }.mkString(", ")})"
       else "") +
      h.limit.map(n => s" limit($n)").getOrElse("")
    val cols = h.cols.map { case (n, TVar(v)) if n == v => n
                            case (n, t)                 => s"$n=${show(t)}" }
    s"${h.rel}(${cols.mkString(", ")})$mods :- ${r.body.map(show).mkString(", ")}."
  }

  def show(p: Program): String = p.rules.map(show).mkString("\n")

  // ------------------------------------------------------------- fresh names
  /** Fresh-name supply used by lowering/optimization so relation access
    * renaming (§III-B) never collides. One instance serves one lowering or
    * optimization call, on one thread. */
  final class NameGen(prefix: String = "v") {
    private var i = 0
    def fresh(): String = { i += 1; s"${prefix}_$i" }
    def fresh(stem: String): String = { i += 1; s"${stem}_$i" }
  }
}
