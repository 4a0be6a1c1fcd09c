package repro.frontend

import repro.core.Catalog
import repro.core.TondIR.{TBin, TConst, TExt, TIf, Term, TVar}

/** Embedded Pandas/NumPy-like DSL (§II-A, Table II).
  *
  * The paper's frontend parses decorated CPython functions into ASTs and
  * A-normalizes them; here the same surface operations are embedded as a
  * lazy operator DAG (each call allocates one node — already one-op-per-
  * binding, i.e. ANF by construction). Expressions are TondIR terms over
  * column names, as the paper's frontend maps each Pandas expression to a
  * TondIR term. [[Lower]] translates the DAG to TondIR with the Table V
  * rules; [[repro.mini.MiniPandas]] interprets the same DAG, and the same
  * terms, eagerly as the "Python" baseline.
  *
  * Schemas are inferred at construction time from the [[Catalog]] (the
  * paper's database-catalog/decorator contextual information, §III-A),
  * including Pandas' implicit `_x`/`_y` suffix renaming on merges.
  *
  * There are twelve operators: `Source`, `Filter`, `Project`, `WithCols`,
  * `Merge`, `GroupAgg`, `SortLimit`, `SemiJoin`, `Pivot`, `AlignJoin`,
  * `ToMatrix` and `EinsumOp`. As in the paper's Table V, column selection,
  * renaming, `unique` and array → DataFrame are one positional [[Project]],
  * and a whole-relation aggregate is a [[GroupAgg]] with no keys.
  */
object Dsl {

  // ----------------------------------------------------------- expressions
  /** The expression operators. A DSL expression is a TondIR term whose
    * variables are column names; [[Lower]] renames them to the variables
    * that bind those columns. */
  implicit final class TermOps(private val t: Term) extends AnyVal {
    def +(o: Term)  = TBin("+", t, o)
    def -(o: Term)  = TBin("-", t, o)
    def *(o: Term)  = TBin("*", t, o)
    def /(o: Term)  = TBin("/", t, o)
    def <(o: Term)  = TBin("<", t, o)
    def <=(o: Term) = TBin("<=", t, o)
    def >(o: Term)  = TBin(">", t, o)
    def >=(o: Term) = TBin(">=", t, o)
    def ===(o: Term) = TBin("=", t, o)
    def !==(o: Term) = TBin("<>", t, o)
    def &&(o: Term) = TBin("and", t, o)
    def ||(o: Term) = TBin("or", t, o)
    def like(pat: String)    = TBin("like", t, TConst(pat))
    def notLike(pat: String) = TBin("notlike", t, TConst(pat))
    def in(vals: Any*)       = TBin("in", t, TExt("list", vals.map(TConst(_))))
    def year                 = TExt("year", Vector(t))
    def substr(from: Int, len: Int) = TExt("substr", Vector(t, TConst(from), TConst(len)))
  }

  def col(n: String): Term = TVar(n)
  def lit(v: Any): Term = TConst(v)
  def date(s: String): Term = TConst(java.time.LocalDate.parse(s))
  def when(c: Term, t: Term, e: Term): Term = TIf(c, t, e)

  /** One aggregate output: name, function (sum/min/max/avg/count), argument,
    * DISTINCT flag. `count(*)` is `AggSpec(n, "count", lit(1))`. */
  final case class AggSpec(out: String, fn: String, arg: Term, distinct: Boolean = false)

  // ------------------------------------------------------------- operators
  sealed trait POp { def schema: Vector[String] }

  final case class Source(name: String, schema: Vector[String]) extends POp
  final case class Filter(in: POp, cond: Term) extends POp { val schema = in.schema }
  /** Projection: output column `out` is input column number `pos`; with
    * `distinct`, duplicate rows go (`drop_duplicates`). Positional, because
    * an einsum's schema is only known after lowering. */
  final case class Project(in: POp, cols: Vector[(String, Int)], distinct: Boolean) extends POp {
    val schema = cols.map(_._1)
  }
  final case class WithCols(in: POp, newCols: Vector[(String, Term)]) extends POp {
    val schema = in.schema.filterNot(newCols.map(_._1).contains) ++ newCols.map(_._1)
  }
  /** Pandas merge with implicit `_x`/`_y` suffixing of shared non-key
    * columns (§III-C "Implicit Renaming"). */
  final case class Merge(l: POp, r: POp, how: String,
                         leftOn: Vector[String], rightOn: Vector[String],
                         suffixes: (String, String)) extends POp {
    private val sharedKeys = leftOn.zip(rightOn).collect { case (a, b) if a == b => a }
    private val overlap = (l.schema.toSet intersect r.schema.toSet) -- sharedKeys
    val leftOut: Vector[(String, String)] =            // source col → output name
      l.schema.map(c => c -> (if (overlap(c)) c + suffixes._1 else c))
    val rightOut: Vector[(String, String)] =
      r.schema.filterNot(c => sharedKeys.contains(c))
        .map(c => c -> (if (overlap(c)) c + suffixes._2 else c))
    val schema = leftOut.map(_._2) ++ rightOut.map(_._2)
  }
  /** Grouped aggregate. With no keys it is a whole-relation aggregate of
    * one row (for `df.c.max()` style scalars, combined with crossMerge). */
  final case class GroupAgg(in: POp, keys: Vector[String], aggs: Vector[AggSpec]) extends POp {
    val schema = keys ++ aggs.map(_.out)
  }
  final case class SortLimit(in: POp, by: Vector[String], asc: Vector[Boolean],
                             limit: Option[Long]) extends POp { val schema = in.schema }
  /** Semi/anti join (Pandas `isin` / filtering merges): keep rows of `l`
    * with (no) match in `r` on the given column pairs plus optional
    * non-equi conditions (op, leftCol, rightCol). */
  final case class SemiJoin(l: POp, r: POp, on: Vector[(String, String)],
                            neq: Vector[(String, String, String)],
                            negated: Boolean) extends POp { val schema = l.schema }
  /** pivot_table(index, columns, values, aggfunc='sum'); distinct values of
    * `columns` are supplied (decorator contextual info, §III-C). */
  final case class Pivot(in: POp, index: String, columns: String, values: String,
                         distinctVals: Vector[Any]) extends POp {
    val schema = index +: distinctVals.map(_.toString)
  }

  /** Implicit join (§III-C): append another DataFrame's columns positionally
    * — Pandas' `df3['b'] = df2['b']` pattern. Both sides get a UID and are
    * joined on it; the optimizer later removes the join when it is a
    * self-join on the generated unique id. Assumes equal row counts and
    * disjoint column names. */
  final case class AlignJoin(l: POp, r: POp) extends POp { val schema = l.schema ++ r.schema }

  // NumPy bridge ---------------------------------------------------------
  /** DataFrame → dense array `(id, c0..)`; the id is a UID ordered by the
    * selected columns (§III-E Unique ID Generation). */
  final case class ToMatrix(in: POp, cols: Vector[String]) extends POp {
    val schema = "id" +: cols.indices.map(i => s"c$i").toVector
  }
  /** Dense einsum over matrices/vectors produced by [[ToMatrix]] or prior
    * einsums. [[Lower]] reads each operand's shape from its lowered schema. */
  final case class EinsumOp(spec: String, operands: Vector[POp]) extends POp {
    val schema = Vector.empty // filled during lowering (shape-dependent)
  }

  // ------------------------------------------------------------ fluent API
  /** Pandas-style DataFrame handle. */
  final class Df(val op: POp) {
    def schema: Vector[String] = op.schema
    def filter(e: Term): Df             = new Df(Filter(op, e))
    def select(cols: String*): Df       = new Df(Project(op, positions(cols), distinct = false))
    def withCol(n: String, e: Term): Df = new Df(WithCols(op, Vector(n -> e)))
    def withCols(cs: (String, Term)*): Df = new Df(WithCols(op, cs.toVector))
    def rename(m: (String, String)*): Df = {
      val to = m.toMap
      new Df(Project(op, op.schema.map(c => to.getOrElse(c, c)).zipWithIndex, distinct = false))
    }

    def merge(o: Df, on: Seq[String], how: String = "inner",
              suffixes: (String, String) = ("_x", "_y")): Df =
      new Df(Merge(op, o.op, how, on.toVector, on.toVector, suffixes))
    def mergeOn(o: Df, leftOn: Seq[String], rightOn: Seq[String], how: String = "inner",
                suffixes: (String, String) = ("_x", "_y")): Df =
      new Df(Merge(op, o.op, how, leftOn.toVector, rightOn.toVector, suffixes))
    def crossMerge(o: Df): Df =
      new Df(Merge(op, o.op, "cross", Vector.empty, Vector.empty, ("_x", "_y")))

    def groupby(keys: String*): Grouped = new Grouped(op, keys.toVector)
    def aggregate(aggs: AggSpec*): Df   = new Df(GroupAgg(op, Vector.empty, aggs.toVector))

    def sortValues(by: Seq[String], asc: Seq[Boolean]): Df =
      new Df(SortLimit(op, by.toVector, asc.toVector, None))
    def sortValues(by: String): Df = sortValues(Seq(by), Seq(true))
    def head(n: Long): Df = op match {
      // Merge separately-defined sort+limit into a single rule (§III-E).
      case SortLimit(in, by, asc, None) => new Df(SortLimit(in, by, asc, Some(n)))
      case _ => new Df(SortLimit(op, Vector.empty, Vector.empty, Some(n)))
    }
    def unique(cols: String*): Df = new Df(Project(op, positions(cols), distinct = true))

    /** Each column with its position; a repeated name means its last column. */
    private def positions(cols: Seq[String]): Vector[(String, Int)] = cols.toVector.map { c =>
      val i = op.schema.lastIndexOf(c)
      require(i >= 0, s"unknown column '$c' (have ${op.schema.distinct.sorted.mkString(", ")})")
      c -> i
    }

    def isin(myCol: String, other: Df, otherCol: String): Df =
      new Df(SemiJoin(op, other.op, Vector(myCol -> otherCol), Vector.empty, negated = false))
    def notin(myCol: String, other: Df, otherCol: String): Df =
      new Df(SemiJoin(op, other.op, Vector(myCol -> otherCol), Vector.empty, negated = true))
    def semiJoin(other: Df, on: Seq[(String, String)],
                 neq: Seq[(String, String, String)] = Seq.empty): Df =
      new Df(SemiJoin(op, other.op, on.toVector, neq.toVector, negated = false))
    def antiJoin(other: Df, on: Seq[(String, String)],
                 neq: Seq[(String, String, String)] = Seq.empty): Df =
      new Df(SemiJoin(op, other.op, on.toVector, neq.toVector, negated = true))

    def alignWith(other: Df): Df = new Df(AlignJoin(op, other.op))

    def pivotTable(index: String, columns: String, values: String,
                   distinctVals: Seq[Any]): Df =
      new Df(Pivot(op, index, columns, values, distinctVals.toVector))

    def toMatrix(cols: String*): Arr = new Arr(ToMatrix(op, cols.toVector))
  }

  /** Pandas groupby handle. */
  final class Grouped(in: POp, keys: Vector[String]) {
    def agg(aggs: AggSpec*): Df = new Df(GroupAgg(in, keys, aggs.toVector))
    def sum(cols: String*): Df  = agg(cols.map(c => AggSpec(c, "sum", col(c))): _*)
    def count(out: String): Df  = agg(AggSpec(out, "count", lit(1)))
  }

  /** NumPy array handle (dense layout). */
  final class Arr(val op: POp) {
    def toDf(names: String*): Df = new Df(Project(op, ("id" +: names.toVector).zipWithIndex, distinct = false))
  }

  object np {
    def einsum(spec: String, operands: Arr*): Arr =
      new Arr(EinsumOp(spec, operands.map(_.op).toVector))
  }

  /** Entry point: a named base relation with its catalog schema. */
  def table(name: String)(implicit cat: Catalog): Df = new Df(Source(name, cat.schema(name)))

  /** Entry point: a base relation registered as a dense matrix `(id, c0..)`
    * with a unique id (decorator-declared layout, §II-B). */
  def matrixTable(name: String)(implicit cat: Catalog): Arr = {
    val schema = cat.schema(name)
    require(schema == "id" +: Vector.tabulate(schema.size - 1)(i => s"c$i") &&
              cat.uniqueCols.get(name).exists(_("id")), s"$name is not a registered matrix")
    new Arr(Source(name, schema))
  }
}
