package repro

import java.sql.Connection
import org.apache.spark.sql.DataFrame
import repro.data.TpchData
import repro.mini.MiniPandas

/** Shared, lazily-materialized SF=0.01 TPC-H inputs for the whole test run:
  * cached Spark DataFrames, a DuckDB connection pre-loaded with the same
  * rows, and MiniPandas tables — all derived from one collect per table so
  * every engine sees identical data. */
object TestData {
  val SF = 0.01

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
