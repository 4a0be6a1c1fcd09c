package repro

import java.sql.Connection
import scala.collection.immutable.ArraySeq
import scala.util.Try
import scala.util.control.NonFatal
import org.apache.spark.sql.DataFrame
import repro.core.{Catalog, Optimizer, Pipeline, SparkGen, SqlGen, TondIR}
import repro.data.{NotebookData, TpchData}
import repro.frontend.Dsl
import repro.mini.MiniPandas
import repro.workloads.{Hybrid, Notebooks, Tpch}
import EnginePath.Answer

/** One set of input tables, each engine's copy built on first use: the Spark
  * frames, a DuckDB connection loaded through `Oracle.loadTable`, and
  * MiniPandas tables, each collected when a program first reads it. */
final class InputSet(frames: => Map[String, DataFrame]) {
  lazy val tables: Map[String, DataFrame] = frames

  lazy val duck: Connection = {
    val c = Oracle.connect()
    tables.foreach { case (n, df) => Oracle.loadTable(c, n, df) }
    c
  }

  private val collected = scala.collection.mutable.Map[String, MiniPandas.Table]()
  val mini: String => MiniPandas.Table = n => collected.getOrElseUpdate(n, {
    val df = tables(n); MiniPandas.Table(df.columns.toVector, df.collect().toVector.map(_.toSeq.toArray)) })
}

/** A program, in the DSL or in TondIR, with the catalog it is written
  * against and the reference SQL its answer is checked with. */
final case class Prog(id: String, cat: Catalog, src: Either[TondIR.Program, Dsl.Df], refSql: String) {
  /** The program optimized at `level`, a DSL program lowered first. */
  def compile(level: Int): TondIR.Program = src.fold(Optimizer.optimize(_, cat, level), Pipeline.compile(_, cat, level))
}

/** One way to run a program. `setup(program, level, inputs)` does the
  * untimed work (SQL generation, view registration) and returns the call to
  * time, which runs the program and returns its answer. A SQL path names its
  * `dialect`. */
final case class EnginePath(label: Int => String, levels: Seq[Int], dialect: Option[SqlGen.SqlDialect],
                            setup: (Prog, Int, InputSet) => () => Answer) {

  /** Run `p` at `level` on `in` and judge its answer. */
  def check(p: Prog, level: Int, in: InputSet): Unit = judge(p, level, in, setup(p, level, in)())

  /** Judge `answer`, `p`'s answer at `level` on this path: its rows must
    * match the reference SQL's and, where the result rule sorts, come in
    * that order. A failure, computing the answer included, names this path
    * at `level` and prints the compiled program and, on a SQL path, its SQL. */
  def judge(p: Prog, level: Int, in: InputSet, answer: => Answer): Unit = {
    lazy val ir = Try(p.compile(level)) // a DSL program that does not lower still runs on MiniPandas
    try {
      val (cols, rows) = answer
      Oracle.assertRowsEquivalentOn(in.duck, cols, rows, p.refSql)
      for (c <- ir; why <- EnginePath.outOfOrder(c, cols, rows)) throw new IllegalArgumentException(why)
    } catch { case NonFatal(e) =>
      val shown = ir.map(c => TondIR.show(c) + dialect.fold("")(d => "\n" + SqlGen.programSql(c, p.cat, d)))
      val why = e.getMessage.stripPrefix("requirement failed: ")
      throw new AssertionError(s"${label(level)}: $why\n${shown.getOrElse("")}", e)
    }
  }
}

object EnginePath {
  /** A program's answer: its columns and its rows. */
  type Answer = (Seq[String], Seq[Seq[Any]])

  /** Where the result rule of `ir` sorts, the first pair of adjacent `rows`
    * out of its key order. Equal keys pass (ties under sort + limit), and a
    * pair is not compared from a NULL key on: DuckDB and Spark place NULLs
    * differently, and the IR does not say where they go. */
  def outOfOrder(ir: TondIR.Program, cols: Seq[String], rows: Seq[Seq[Any]]): Option[String] = {
    val sort = ir.defining(ir.result).toSeq.flatMap(_.head.sort)
    val keys = sort.map { case (c, asc) => (cols.indexWhere(_.equalsIgnoreCase(c)), if (asc) 1 else -1) }
    def inOrder(a: Seq[Any], b: Seq[Any]) = keys.iterator.map { case (i, dir) =>
      if (a(i) == null || b(i) == null) -1 else dir * compare(a(i), b(i)) }.find(_ != 0).forall(_ < 0)
    val order = sort.map { case (c, asc) => if (asc) c else s"$c DESC" }.mkString(", ")
    rows.sliding(2).zipWithIndex.collectFirst { case (Seq(a, b), i) if !inOrder(a, b) =>
      s"rows $i and ${i + 1} are out of the order $order: $a, $b" }
  }

  private def compare(a: Any, b: Any): Int = (a, b) match {
    case (x: Number, y: Number)             => java.lang.Double.compare(x.doubleValue, y.doubleValue)
    case (x: Comparable[Any] @unchecked, y) => x.compareTo(y)
  }
}

/** The 30 workload programs, their SF=0.01 inputs and the engine paths,
  * shared by the whole test run and by `bench/`. */
object TestData {
  val SF = 0.01

  lazy val tpch: Vector[Prog] =
    Tpch.all.map(q => Prog(s"Q${q.id}", TpchData.catalog, Right(q.build(TpchData.catalog)), q.refSql))

  lazy val notebooks: Vector[Prog] = (Notebooks.all ++ Hybrid.all).map(w =>
    Prog(w.name, NotebookData.catalog, Right(w.build(NotebookData.catalog)), w.refSql))

  /** 22 TPC-H queries, 4 notebooks and 4 hybrid programs. */
  lazy val programs: Vector[Prog] = tpch ++ notebooks

  // Deliberately NOT cached: Spark 4.1's CacheManager substitutes cached
  // fragments into any matching plan, and InMemoryRelation.withOutput throws
  // on CTEs referenced twice with pruned outputs. The generators are
  // deterministic and cheap at SF=0.01, so recomputation is both safe
  // (identical rows on every action) and fast. The TPC-H and notebook table
  // names do not overlap.
  lazy val inputs = new InputSet(
    TpchData.tables(SparkSpec.shared, SF) ++ NotebookData.tables(SparkSpec.shared, SF))

  private def collected(df: DataFrame): Answer = (df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  /** TondIR → Catalyst; compiling, building the plan and collecting it is the timed call. */
  val sparkGen = EnginePath(l => s"SparkGen O$l" + (if (l == 0) " (Grizzly-simulated)" else ""), 0 to 4, None,
    (p, l, in) => () => collected(SparkGen.compile(p.compile(l), in.tables, p.cat, SparkSpec.shared)))

  /** Generated DuckDB SQL; executing it and draining the rows is the timed call. */
  val duckSql = EnginePath(l => s"generated DuckDB SQL (O$l)", 0 to 4, Some(SqlGen.DuckDialect), (p, l, in) => {
    val sql = SqlGen.programSql(p.compile(l), p.cat, SqlGen.DuckDialect)
    () => { val (cols, rows) = Oracle.query(in.duck, sql); (cols, rows.map(_.toSeq)) }
  })

  /** Generated Spark SQL over temp views (the compiled-engine stand-in). */
  val sparkSql = EnginePath(l => s"generated Spark SQL (O$l)", Seq(0, 4), Some(SqlGen.SparkDialect), (p, l, in) => {
    in.tables.foreach { case (n, d) => d.createOrReplaceTempView(n) }
    val sql = SqlGen.programSql(p.compile(l), p.cat, SqlGen.SparkDialect)
    () => collected(SparkSpec.shared.sql(sql))
  })

  /** The "Python" baseline: MiniPandas interprets a DSL program, so it has
    * no optimization level. */
  val miniPandas = EnginePath(_ => "MiniPandas baseline", Seq(0), None, (p, _, in) => {
    val df = p.src.getOrElse(sys.error(s"${p.id} is a TondIR program; MiniPandas runs only the DSL"))
    () => { val t = MiniPandas.run(df, in.mini); (t.schema, t.rows.map(ArraySeq.unsafeWrapArray(_))) }
  })

  val paths: Seq[EnginePath] = Seq(sparkGen, duckSql, sparkSql, miniPandas)

  /** Check `p` on each of `on` at each of its levels. */
  def check(p: Prog, in: InputSet, on: Seq[EnginePath] = paths): Unit =
    for (path <- on; level <- path.levels) path.check(p, level, in)
}
