package repro.workloads

import repro.{InputSet, Prog, SparkSpec}
import repro.TestData.{duckSql, miniPandas, sparkGen}
import repro.core.TondIR
import repro.data.NotebookData

/** Covariance micro-benchmark correctness (Fig. 9 setup): dense and sparse
  * layouts, both backends, against a dense-table reference. */
class CovarMicroSpec extends SparkSpec {
  private val Rows = 500L
  private val Cols = 4
  private val cat = CovarMicro.catalogFor(Cols)

  private lazy val in = new InputSet(Map(
    "m"     -> NotebookData.matrixDense(spark, Rows, Cols, density = 0.3),
    "m_coo" -> NotebookData.matrixCoo(spark, Rows, Cols, density = 0.3)))
  private val dense = Prog("CovarDense", cat, Right(CovarMicro.denseDf(Cols)), CovarMicro.denseRefSql(Cols))
  private val sparse = Prog("CovarSparse", cat, Left(CovarMicro.sparseProgram()), CovarMicro.sparseRefSql(Cols))

  for ((name, path, p, level) <- Seq(
         ("dense covariance via SparkGen", sparkGen, dense, 4),
         ("dense covariance via generated DuckDB SQL", duckSql, dense, 4),
         ("dense covariance unoptimized (O0)", duckSql, dense, 0),
         ("sparse (COO) covariance via SparkGen", sparkGen, sparse, 0),
         ("sparse (COO) covariance via generated DuckDB SQL", duckSql, sparse, 0),
         ("MiniNumPy dense covariance", miniPandas, dense, 0)))
    test(s"$name matches reference") { path.check(p, level, in) }

  test("dense covariance optimizer eliminates the id self-join") {
    val p4 = dense.compile(4)
    val selfJoins = p4.rules.map(r => r.relAtoms.count(_.rel == "m")).max
    assert(selfJoins <= 1, s"self-join on m not eliminated:\n${TondIR.show(p4)}")
  }
}
