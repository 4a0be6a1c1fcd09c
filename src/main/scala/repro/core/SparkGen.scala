package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.collection.immutable.ListMap
import TondIR._

/** TondIR → Catalyst translation: every rule is compiled directly into Spark
  * DataFrame operations, i.e. a Catalyst logical plan — the Spark-native
  * execution path of this reproduction (no SQL text round-trip).
  *
  * Mapping: relation atoms with repeated variables → equi-joins; outer-join
  * markers → left/right/full joins with ON conditions; predicates → `where`;
  * assignments → inlined column expressions; `group(...)` heads →
  * `groupBy().agg()` (agg-bearing predicates become post-aggregation
  * filters, i.e. HAVING); `exists` / `not exists` → `left_semi` /
  * `left_anti` joins against the sub-body, compiled by the same body
  * function at any depth; constant relations → `createDataFrame`; UID() →
  * 0-based `row_number()` window; sort/limit → `orderBy`/`limit`.
  *
  * A semi-join sees only the columns of its two sides, so an `exists`
  * sub-body may correlate with its directly enclosing level only; a
  * variable bound two or more levels out is rejected with an error that
  * names it (SqlGen renders it as an ordinary correlated reference).
  */
object SparkGen {

  /** Compile a program: `inputs` provides DataFrames for base relations. */
  def compile(p: Program, inputs: Map[String, DataFrame], cat: Catalog,
              spark: SparkSession): DataFrame = {
    val tags = Iterator.from(0).map(n => s"b$n")   // unique column prefix per body level
    var rels: Map[String, DataFrame] = inputs
    for (rule <- p.rules)
      rels = rels + (rule.head.rel -> compileRule(rule, rels, spark, tags))
    rels(p.result)
  }

  /** Compile one rule against already-materialized relation DataFrames. */
  private def compileRule(rule: Rule, rels: Map[String, DataFrame], spark: SparkSession,
                          tags: Iterator[String]): DataFrame = {
    // Aggregate predicates become HAVING; the rest of the body is joined and filtered.
    val (having, rest) = rule.body.partition { case PredAtom(t) => t.hasAgg; case _ => false }
    val (withExists, colOf, _) = body(new Scope(rest), u => sys.error(s"sparkgen: unbound var $u in ${show(rule)}"), rels, spark, tags)
    val havingPreds = having.collect { case PredAtom(t) => t }

    val headCols = rule.head.cols
    val projected: DataFrame =
      if (rule.hasAgg) {
        // A scalar aggregate is the case with no keys (`Dataset.agg` is
        // `groupBy().agg`). A head column is a grouping key iff it is a bare
        // var from the group list; everything else must be (or contain) an
        // aggregate.
        val havingCols = havingPreds.zipWithIndex.map { case (t, i) => render(t, colOf).as(s"__having_$i") }
        def isKey(c: (String, Term)): Boolean = c._2 match {
          case TVar(v) => rule.head.group.contains(v); case _ => false }
        val aggCols = headCols.filterNot(isKey)
        val exprs = aggCols.map { case (n, t) => render(t, colOf).as(n) } ++ havingCols
        val grouped = withExists.groupBy(
          rule.head.group.map(g => colOf(g).as(s"__k_$g")): _*)
        val agged =
          if (exprs.nonEmpty) grouped.agg(exprs.head, exprs.tail: _*)
          else grouped.agg(count(lit(1)).as("__cnt")).drop("__cnt")
        val withHaving = havingPreds.indices.foldLeft(agged)((d, i) => d.where(col(s"__having_$i")))
        // Re-project in head order: group keys via their __k_ alias.
        val out = headCols.map {
          case (n, TVar(v)) if rule.head.group.contains(v) => col(s"__k_$v").as(n)
          case (n, _)                                      => col(n)
        }
        withHaving.select(out: _*)
      } else {
        withExists.select(headCols.map { case (n, t) => render(t, colOf).as(n) }: _*)
      }

    val distincted = if (rule.head.distinct) projected.distinct() else projected
    val sorted =
      if (rule.head.sort.nonEmpty)
        distincted.orderBy(rule.head.sort.map { case (c, asc) => if (asc) col(c).asc else col(c).desc }: _*)
      else distincted
    rule.head.limit.map(n => sorted.limit(n.toInt)).getOrElse(sorted)
  }

  /** One body level → (DataFrame, resolve, correlation conditions). Joins
    * the relation/constant atoms left-to-right, filters on the predicates
    * local to this level, and semi/anti-joins each `exists` atom against its
    * sub-body, built by this same function. `resolve` maps a variable to its
    * column here, else its assignment, else through `outer`. A sub-body
    * correlates with its enclosing level through shared variables and
    * through predicates that mention an enclosing variable. */
  private def body(scope: Scope, outer: String => Column, rels: Map[String, DataFrame],
                   spark: SparkSession, tags: Iterator[String]): (DataFrame, String => Column, Vector[Column]) = {
    val tag = tags.next()
    val items = scope.atoms.collect { case r: RelAtom => Left(r); case c: ConstAtom => Right(c) }
    require(items.nonEmpty, "empty body")
    var env = ListMap.empty[String, String]   // var → unique column, in binding order
    def colOf(miss: String => Column)(v: String): Column =
      env.get(v).map(col).getOrElse(scope.assignOf.get(v).map(render(_, colOf(miss))).getOrElse(miss(v)))
    var df: DataFrame = null
    items.zipWithIndex.foreach { case (item, i) =>
      val (src, vars, outerOn) = item match {
        case Left(r) =>
          val base = rels.getOrElse(r.rel, sys.error(s"sparkgen: unknown relation ${r.rel}"))
          (base, r.vars, r.outerOn)
        case Right(c) =>
          val schema = StructType(c.rows.head.zipWithIndex.map { case (v, k) =>
            StructField(s"c$k", litType(v.v), nullable = true) })
          val rows = c.rows.map(r => Row.fromSeq(r.map(_.v)))
          (spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 1), schema), c.vars, None)
      }
      val uniq = vars.indices.map(k => s"__${tag}_${i}_c$k")
      val renamed = src.toDF(uniq: _*)
      // A variable bound before (here or in an earlier atom) becomes an equality.
      val conds = vars.zipWithIndex.flatMap { case (v, k) =>
        val prev = env.get(v)
        if (prev.isEmpty) env += v -> uniq(k)
        prev.map(p => col(p) === col(uniq(k)))
      }
      df = outerOn match {
        case _ if i == 0 => conds.foldLeft(renamed)(_ where _)
        case Some((kind, on)) =>
          val jt = kind match { case "left" => "left"; case "right" => "right"; case "full" => "full" }
          df.join(renamed, (conds :+ render(on, colOf(outer))).reduce(_ && _), jt)
        case None => df.join(renamed, conds.reduceOption(_ && _).getOrElse(lit(true)), "inner")
      }
    }
    def local(t: Term): Boolean = t.vars.forall(v => !scope.outer.exists(_.sees(v)) &&
      (scope.binds.contains(v) || scope.assignOf.get(v).exists(local)))
    val resolve: String => Column = colOf(outer)
    // A semi-join sees only the columns of its two sides: this level's.
    val joinCol: String => Column = colOf(u =>
      if (scope.outer.exists(_.sees(u))) sys.error(s"sparkgen: $u is bound two levels out of an exists body; a semi-join cannot reach it")
      else sys.error(s"sparkgen: unbound var $u"))
    val (localPreds, corrPreds) = scope.atoms.collect { case PredAtom(t) => t }.partition(local)
    val filtered = localPreds.foldLeft(df)((d, t) => d.where(render(t, resolve)))
    val withExists = scope.atoms.collect { case e: ExistsAtom => e }.foldLeft(filtered) { (d, e) =>
      val (inner, _, conds) = body(scope.sub(e), joinCol, rels, spark, tags)
      d.join(inner, conds.reduceOption(_ && _).getOrElse(lit(true)), if (e.negated) "left_anti" else "left_semi")
    }
    val shared = env.toVector.collect { case (v, c) if scope.outer.exists(_.sees(v)) => outer(v) === col(c) }
    (withExists, resolve, shared ++ corrPreds.map(render(_, resolve)))
  }

  private def litType(v: Any): DataType = v match {
    case _: Long          => LongType
    case _: Double        => DoubleType
    case _: String        => StringType
    case _: Boolean       => BooleanType
    case _: java.time.LocalDate => DateType
    case _                => StringType
  }

  /** Render a term as a Catalyst Column. */
  private def render(t: Term, colOf: String => Column): Column = t match {
    case TVar(v)   => colOf(v)
    case TConst(d: java.time.LocalDate) => lit(java.sql.Date.valueOf(d))
    case TConst(v) => lit(v)
    case TAgg("count", TConst(_), false) => count(lit(1))
    case TAgg("count", a, true)  => countDistinct(render(a, colOf))
    case TAgg("count", a, false) => count(render(a, colOf))
    case TAgg("sum", a, _)   => sum(render(a, colOf))
    case TAgg("min", a, _)   => min(render(a, colOf))
    case TAgg("max", a, _)   => max(render(a, colOf))
    case TAgg("avg", a, _)   => avg(render(a, colOf))
    case TAgg(f, _, _)       => sys.error(s"sparkgen: agg $f")
    case TIf(c, a, b)  => when(render(c, colOf), render(a, colOf)).otherwise(render(b, colOf))
    case TBin("in", l, TExt("list", vals)) =>
      render(l, colOf).isin(vals.map { case TConst(v) => v; case x => sys.error(s"in-list: $x") }: _*)
    case TBin(op, l, r) =>
      val (a, b) = (render(l, colOf), render(r, colOf))
      op match {
        case "+" => a + b;  case "-" => a - b; case "*" => a * b; case "/" => a / b
        case "%" => a % b
        case "=" => a === b; case "<>" => a =!= b
        case "<" => a < b; case "<=" => a <= b; case ">" => a > b; case ">=" => a >= b
        case "and" => a && b; case "or" => a || b
        case "like"    => r match { case TConst(s: String) => a.like(s); case _ => sys.error("like needs const") }
        case "notlike" => r match { case TConst(s: String) => !a.like(s); case _ => sys.error("like needs const") }
        case x => sys.error(s"sparkgen: op $x")
      }
    case TExt("uid", args) =>
      val w = if (args.isEmpty) Window.orderBy(monotonically_increasing_id())
              else Window.orderBy(args.map(render(_, colOf)): _*)
      row_number().over(w).cast(LongType) - 1L
    case TExt("year", Seq(x))   => year(render(x, colOf)).cast(LongType)
    case TExt("substr", Seq(x, TConst(f: Long), TConst(l: Long))) => substring(render(x, colOf), f.toInt, l.toInt)
    case TExt(_, _) => sys.error(s"sparkgen: unsupported external ${show(t)}")
  }
}
