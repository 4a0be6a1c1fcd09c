package repro.workloads

import repro.core.Catalog
import repro.data.NotebookData
import repro.frontend.Dsl._

/** Synthetic hybrid matrix-calculation experiments (§V-A): join two large
  * tables, convert the result to a NumPy array, run an einsum — a
  * matrix–vector product in one experiment, a covariance matrix in the
  * other — plus "Filtered" variants that apply a join-dependent filter
  * before the einsum. The covariance self-join is the showcase for the
  * optimizer's self-join elimination (Fig. 10, O3).
  */
object Hybrid {

  implicit private val cat: Catalog = NotebookData.catalog

  private val matCols = Vector("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
  private val weights = Vector(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

  private def joined(filtered: Boolean): Df = {
    val j = table("hybrid_a").merge(table("hybrid_b"), on = Seq("key"))
    if (filtered) j.filter(col("x1") + col("y1") > lit(100.0)) else j
  }

  private def joinSql(filtered: Boolean): String =
    "SELECT a.key, x1, x2, x3, x4, y1, y2, y3, y4 FROM hybrid_a a JOIN hybrid_b b ON a.key = b.key" +
      (if (filtered) " WHERE x1 + y1 > 100.0" else "")

  private def matmul(filtered: Boolean): Workload = {
    val nm = if (filtered) "HybridMatmulFiltered" else "HybridMatmul"
    Workload(nm, _ => {
      val m = joined(filtered).toMatrix(matCols: _*)
      np.einsum("ij,j->i", m, matrixTable("hybrid_weights")).toDf("v")
    },
      s"""SELECT ROW_NUMBER() OVER (ORDER BY ${matCols.mkString(", ")}) - 1 AS id,
         |  ${matCols.zip(weights).map { case (c, w) => s"$w*$c" }.mkString(" + ")} AS v
         |FROM (${joinSql(filtered)}) j""".stripMargin)
  }

  private def covar(filtered: Boolean): Workload = {
    val nm = if (filtered) "HybridCovarFiltered" else "HybridCovar"
    val n = matCols.size
    val cells = (for (j <- 0 until n; k <- 0 until n)
      yield s"SUM(${matCols(j)}*${matCols(k)}) AS p${j}_$k").mkString(", ")
    val rows = (0 until n).map { j =>
      s"SELECT $j AS id, ${(0 until n).map(k => s"p${j}_$k AS k$k").mkString(", ")} FROM cells"
    }.mkString("\nUNION ALL ")
    Workload(nm, _ => {
      val m = joined(filtered).toMatrix(matCols: _*)
      np.einsum("ij,ik->jk", m, m).toDf((0 until n).map(k => s"k$k"): _*)
    },
      s"""WITH cells AS (SELECT $cells FROM (${joinSql(filtered)}) j)
         |$rows""".stripMargin)
  }

  val hybridMatmul: Workload         = matmul(filtered = false)
  val hybridMatmulFiltered: Workload = matmul(filtered = true)
  val hybridCovar: Workload          = covar(filtered = false)
  val hybridCovarFiltered: Workload  = covar(filtered = true)

  val all: Vector[Workload] =
    Vector(hybridMatmul, hybridMatmulFiltered, hybridCovar, hybridCovarFiltered)
}
