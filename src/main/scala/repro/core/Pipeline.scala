package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.frontend.{Dsl, Lower}

/** End-to-end PyTond pipeline (Fig. 1): DSL program → TondIR → optimization
  * at a chosen level (O0 = Grizzly-simulated baseline, O4 = full PyTond) →
  * either SQL text (DuckDB / Spark SQL dialects) or a Catalyst plan.
  */
object Pipeline {

  /** Translate and optimize. Level ∈ 0..4 (Fig. 10's O1..O4; 0 = none). */
  def compile(df: Dsl.Df, cat: Catalog, level: Int = 4): TondIR.Program =
    Optimizer.optimize(Lower.lower(df, cat), cat, level)

  def toSql(df: Dsl.Df, cat: Catalog, dialect: SqlGen.SqlDialect, level: Int = 4): String =
    SqlGen.programSql(compile(df, cat, level), cat, dialect)

  /** Direct TondIR → Catalyst execution (the Spark-native backend). */
  def toSpark(df: Dsl.Df, cat: Catalog, inputs: Map[String, DataFrame],
              spark: SparkSession, level: Int = 4): DataFrame =
    SparkGen.compile(compile(df, cat, level), inputs, cat, spark)

}
