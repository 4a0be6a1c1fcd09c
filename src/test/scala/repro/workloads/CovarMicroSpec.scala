package repro.workloads

import repro.{InputSet, Oracle, Prog, SparkSpec, TestData}
import repro.core.{Optimizer, SparkGen, SqlGen}
import repro.data.NotebookData
import repro.frontend.Lower

/** Covariance micro-benchmark correctness (Fig. 9 setup): dense and sparse
  * layouts, both backends, against a dense-table reference. */
class CovarMicroSpec extends SparkSpec {
  private val Rows = 500L
  private val Cols = 4
  private val cat = CovarMicro.catalogFor(Cols)

  private lazy val in = new InputSet(Map(
    "m"     -> NotebookData.matrixDense(spark, Rows, Cols, density = 0.3),
    "m_coo" -> NotebookData.matrixCoo(spark, Rows, Cols, density = 0.3)))
  private val dense = Prog("CovarDense", cat, CovarMicro.denseDf(Cols), CovarMicro.denseRefSql(Cols))

  test("dense covariance via SparkGen matches reference") {
    TestData.sparkGen.check(dense, 4, in)
  }

  test("dense covariance via generated DuckDB SQL matches reference") {
    TestData.duckSql.check(dense, 4, in)
  }

  test("dense covariance unoptimized (O0) matches reference") {
    TestData.duckSql.check(dense, 0, in)
  }

  test("sparse (COO) covariance via SparkGen matches reference") {
    val df = SparkGen.compile(CovarMicro.sparseProgram(), in.tables, cat, spark)
    Oracle.assertEquivalentOn(in.duck, df, CovarMicro.sparseRefSql(Cols))
  }

  test("sparse (COO) covariance via generated DuckDB SQL matches reference") {
    val sql = SqlGen.programSql(CovarMicro.sparseProgram(), cat, SqlGen.DuckDialect)
    Oracle.assertSqlEquivalent(in.duck, sql, CovarMicro.sparseRefSql(Cols))
  }

  test("dense covariance optimizer eliminates the id self-join") {
    val p0 = Lower.lower(CovarMicro.denseDf(Cols), cat)
    val p4 = Optimizer.optimize(p0, cat, 4)
    val selfJoins = p4.rules.map(r => r.relAtoms.count(_.rel == "m")).max
    assert(selfJoins <= 1, s"self-join on m not eliminated:\n${repro.core.TondIR.show(p4)}")
  }

  test("MiniNumPy dense covariance matches reference") {
    TestData.miniPandas.check(dense, 0, in)
  }
}
