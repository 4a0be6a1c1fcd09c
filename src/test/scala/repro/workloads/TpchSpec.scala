package repro.workloads

import repro.{Oracle, SparkSpec, TestData}
import repro.core.{Pipeline, SqlGen}
import repro.data.TpchData
import repro.mini.MiniPandas

/** Oracle-checked correctness of all 22 TPC-H queries across every engine
  * and optimization level:
  *
  *  - TondIR→Catalyst (SparkGen) at O4 vs hand-written reference SQL on DuckDB
  *  - TondIR→Catalyst at O0 (the Grizzly-simulated baseline) vs the same
  *  - generated DuckDB SQL (O4) vs reference SQL, both on DuckDB
  *  - MiniPandas (the "Python" baseline) vs reference SQL
  */
class TpchSpec extends SparkSpec {
  private val cat = TpchData.catalog

  for (q <- Tpch.all) {
    test(s"Q${q.id}: SparkGen O4 matches reference SQL") {
      val df = Pipeline.toSpark(q.build(cat), cat, TestData.inputs, spark, level = 4)
      Oracle.assertEquivalentOn(TestData.duck, df, q.refSql)
    }

    test(s"Q${q.id}: SparkGen O0 (Grizzly-simulated) matches reference SQL") {
      val df = Pipeline.toSpark(q.build(cat), cat, TestData.inputs, spark, level = 0)
      Oracle.assertEquivalentOn(TestData.duck, df, q.refSql)
    }

    test(s"Q${q.id}: generated DuckDB SQL (O4) matches reference SQL") {
      val sql = Pipeline.toSql(q.build(cat), cat, SqlGen.DuckDialect, level = 4)
      Oracle.assertSqlEquivalent(TestData.duck, sql, q.refSql)
    }

    test(s"Q${q.id}: generated Spark SQL (O4) matches reference SQL") {
      val df = Pipeline.toSparkSql(q.build(cat), cat, TestData.inputs, spark, level = 4)
      Oracle.assertEquivalentOn(TestData.duck, df, q.refSql)
    }

    test(s"Q${q.id}: MiniPandas baseline matches reference SQL") {
      val t = MiniPandas.run(q.build(cat), TestData.mini)
      Oracle.assertRowsEquivalentOn(TestData.duck, t.schema, t.rows.map(_.toSeq), q.refSql)
    }
  }
}
