package repro

import java.sql.Connection
import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.DataFrame
import repro.core.{Catalog, Pipeline, SqlGen}
import repro.data.{NotebookData, TpchData}
import repro.frontend.Dsl
import repro.mini.MiniPandas
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** One set of input tables, each engine's copy built on first use: the Spark
  * frames, a DuckDB connection loaded through `Oracle.loadTable`, and
  * MiniPandas tables. */
final class InputSet(frames: => Map[String, DataFrame]) {
  lazy val tables: Map[String, DataFrame] = frames

  lazy val duck: Connection = {
    val c = Oracle.connect()
    tables.foreach { case (n, df) => Oracle.loadTable(c, n, df) }
    c
  }

  lazy val mini: Map[String, MiniPandas.Table] = tables.map { case (n, df) =>
    n -> MiniPandas.Table(df.columns.toVector, df.collect().toVector.map(_.toSeq.toArray))
  }
}

/** A workload program with the catalog it is written against and the
  * reference SQL its answer is checked with. */
final case class Prog(id: String, cat: Catalog, df: Dsl.Df, refSql: String)

/** One way to run a program. `setup(program, level, inputs)` does the
  * untimed work (SQL generation, view registration) and returns the call to
  * time, which runs the program and returns its `(columns, rows)`. */
final case class EnginePath(label: Int => String, levels: Seq[Int],
                            setup: (Prog, Int, InputSet) => () => (Seq[String], Seq[Seq[Any]])) {

  /** Run `p` at `level` on `in` and check the answer against its reference SQL. */
  def check(p: Prog, level: Int, in: InputSet): Unit = {
    val (cols, rows) = setup(p, level, in)()
    Oracle.assertRowsEquivalentOn(in.duck, cols, rows, p.refSql)
  }
}

/** The 30 workload programs, their SF=0.01 inputs and the engine paths,
  * shared by the whole test run and by `bench/`. */
object TestData {
  val SF = 0.01

  lazy val tpch: Vector[Prog] =
    Tpch.all.map(q => Prog(s"Q${q.id}", TpchData.catalog, q.build(TpchData.catalog), q.refSql))

  lazy val notebooks: Vector[Prog] = (Notebooks.all ++ Hybrid.all).map(w =>
    Prog(w.name, NotebookData.catalog, w.build(NotebookData.catalog), w.refSql))

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

  private def collected(df: DataFrame) = (df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  /** TondIR → Catalyst; building the plan and collecting it is the timed call. */
  val sparkGen = EnginePath(l => s"SparkGen O$l" + (if (l == 0) " (Grizzly-simulated)" else ""), 0 to 4,
    (p, l, in) => () => collected(Pipeline.toSpark(p.df, p.cat, in.tables, SparkSpec.shared, l)))

  /** Generated DuckDB SQL; executing it and draining the rows is the timed call. */
  val duckSql = EnginePath(l => s"generated DuckDB SQL (O$l)", 0 to 4, (p, l, in) => {
    val sql = Pipeline.toSql(p.df, p.cat, SqlGen.DuckDialect, l)
    () => { val (cols, rows) = Oracle.query(in.duck, sql); (cols, rows.map(_.toSeq)) }
  })

  /** Generated Spark SQL over temp views (the compiled-engine stand-in). */
  val sparkSql = EnginePath(l => s"generated Spark SQL (O$l)", Seq(0, 4), (p, l, in) => {
    in.tables.foreach { case (n, d) => d.createOrReplaceTempView(n) }
    val sql = Pipeline.toSql(p.df, p.cat, SqlGen.SparkDialect, l)
    () => collected(SparkSpec.shared.sql(sql))
  })

  /** The "Python" baseline: MiniPandas interprets the DSL program, so it has
    * no optimization level. */
  val miniPandas = EnginePath(_ => "MiniPandas baseline", Seq(0), (p, _, in) => {
    val tables = in.mini
    () => { val t = MiniPandas.run(p.df, tables); (t.schema, t.rows.map(ArraySeq.unsafeWrapArray(_))) }
  })

  val paths: Seq[EnginePath] = Seq(sparkGen, duckSql, sparkSql, miniPandas)
}
