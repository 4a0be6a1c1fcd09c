package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.{InputSet, Prog}
import repro.TestData.{duckSql, miniPandas, sparkGen}
import repro.data.NotebookData
import repro.workloads.CovarMicro

/** T7 — Fig. 9: covariance-matrix computation sweeps over rows, columns,
  * and density (the paper's "sparsity" axis), comparing MiniNumPy (the
  * NumPy stand-in) against PyTond's dense and sparse (COO) translations on
  * DuckDB and on the Catalyst backend.
  *
  * Default sweep sizes are container-scale versions of the paper's
  * 1M-row/32-column fixed points (the paper's absolute sizes are reachable
  * by setting REPRO_COVAR_MAX_ROWS). */
class CovarBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("sweep", "rows", "cols", "density",
    "numpy_ms", "pytond_duck_dense", "pytond_duck_sparse",
    "pytond_spark_dense", "pytond_spark_sparse")

  reset("covar")

  private val maxRows = sys.env.getOrElse("REPRO_COVAR_MAX_ROWS", "200000").toLong

  private val sweeps: Seq[(String, Long, Int, Double)] =
    Seq(20_000L, 100_000L, maxRows).map(r => ("rows", r, 8, 1.0)) ++
    Seq(4, 8, 16).map(c => ("cols", 100_000L, c, 1.0)) ++
    Seq(0.001, 0.01, 0.1, 1.0).map(d => ("density", 100_000L, 8, d))

  for ((sweep, rows, cols, density) <- sweeps) {
    test(s"covariance $sweep rows=$rows cols=$cols density=$density") {
      val cat = CovarMicro.catalogFor(cols)
      // materialized once (Parquet) so every engine reads identical bytes;
      // MiniNumPy collects only the dense table it reads, and the sparse
      // answer is checked against the dense table
      val in = new InputSet(parquet(Map(
        "m"     -> NotebookData.matrixDense(spark, rows, cols, density),
        "m_coo" -> NotebookData.matrixCoo(spark, rows, cols, density))))
      val dense = Prog("CovarDense", cat, Right(CovarMicro.denseDf(cols)), CovarMicro.denseRefSql(cols))
      val sparse = Prog("CovarSparse", cat, Left(CovarMicro.sparseProgram()), CovarMicro.sparseRefSql(cols))
      try record("covar", header, Seq(sweep, rows, cols, density,
        time(miniPandas, dense, 0, in = in), time(duckSql, dense, 4, in = in), time(duckSql, sparse, 0, in = in),
        time(sparkGen, dense, 4, in = in), time(sparkGen, sparse, 0, in = in)))
      finally in.duck.close()
    }
  }
}
