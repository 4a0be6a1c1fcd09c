package repro

import java.sql.Connection
import org.apache.spark.sql.DataFrame
import repro.core.Catalog
import repro.data.{NotebookData, TpchData}
import repro.frontend.Dsl
import repro.mini.MiniPandas
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** Shared, lazily-materialized SF=0.01 TPC-H inputs for the whole test run:
  * cached Spark DataFrames, a DuckDB connection pre-loaded with the same
  * rows, and MiniPandas tables — all derived from one collect per table so
  * every engine sees identical data. */
object TestData {
  val SF = 0.01

  /** The 30 workload programs (22 TPC-H queries, 4 notebooks, 4 hybrid
    * programs), each with the catalog it is written against. */
  lazy val programs: Vector[(String, Catalog, Dsl.Df)] =
    Tpch.all.map(q => (s"Q${q.id}", TpchData.catalog, q.build(TpchData.catalog))) ++
      (Notebooks.all ++ Hybrid.all).map(w => (w.name, NotebookData.catalog, w.build(NotebookData.catalog)))

  lazy val spark = SparkSpec.shared

  // Deliberately NOT cached: Spark 4.1's CacheManager substitutes cached
  // fragments into any matching plan, and InMemoryRelation.withOutput throws
  // on CTEs referenced twice with pruned outputs. The generators are
  // deterministic and cheap at SF=0.01, so recomputation is both safe
  // (identical rows on every action) and fast.
  lazy val inputs: Map[String, DataFrame] = TpchData.tables(spark, SF)

  lazy val duck: Connection = {
    val c = Oracle.connect()
    inputs.foreach { case (n, df) => Oracle.loadTable(c, n, df) }
    c
  }

  lazy val mini: Map[String, MiniPandas.Table] = inputs.map { case (n, df) =>
    val schema = df.columns.toVector
    n -> MiniPandas.Table(schema, df.collect().toVector.map(_.toSeq.toArray))
  }
}
