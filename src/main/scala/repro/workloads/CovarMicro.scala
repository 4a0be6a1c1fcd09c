package repro.workloads

import repro.core.Catalog
import repro.core.TondIR.{NameGen, Program}
import repro.frontend.Dsl._
import repro.tensor.Einsum

/** Covariance-matrix micro-benchmark (Fig. 9): `einsum('ij,ik->jk', m, m)`
  * over a dense `(id, c0..)` matrix or its sparse COO twin, swept over
  * rows / columns / density. Reference SQL is derived from the dense table
  * in both cases (the sparse result is compared on its non-zero support —
  * cell values are positive, so a cell is present iff its sum is non-zero).
  */
object CovarMicro {

  def catalogFor(nCols: Int): Catalog =
    Catalog.empty.withMatrix("m", nCols).withCoo("m_coo")

  /** Dense-layout DSL program: covariance over matrix table `m`. */
  def denseDf(nCols: Int): Df = {
    implicit val c: Catalog = catalogFor(nCols)
    val m = matrixTable("m")
    np.einsum("ij,ik->jk", m, m).toDf((0 until nCols).map(k => s"k$k"): _*)
  }

  /** Sparse-layout TondIR program over COO table `m_coo` (Blacher-style
    * generic translation — §III-D's sparse path). */
  def sparseProgram(): Program =
    Einsum.lowerSparse("ij,ik->jk", Vector(Einsum.CooOp("m_coo", 2), Einsum.CooOp("m_coo", 2)), new NameGen("sp"))

  private def cellsSql(nCols: Int): String =
    (for (j <- 0 until nCols; k <- 0 until nCols)
      yield s"SUM(c$j*c$k) AS p${j}_$k").mkString(", ")

  /** Reference for the dense result `(id, k0..k{n-1})`. */
  def denseRefSql(nCols: Int): String = {
    val rows = (0 until nCols).map { j =>
      s"SELECT $j AS id, ${(0 until nCols).map(k => s"p${j}_$k AS k$k").mkString(", ")} FROM cells"
    }.mkString("\nUNION ALL ")
    s"WITH cells AS (SELECT ${cellsSql(nCols)} FROM m)\n$rows"
  }

  /** Reference for the sparse result `(i0, i1, v)`: non-zero cells only. */
  def sparseRefSql(nCols: Int): String = {
    val rows = (for (j <- 0 until nCols; k <- 0 until nCols)
      yield s"SELECT $j AS i0, $k AS i1, p${j}_$k AS v FROM cells WHERE p${j}_$k <> 0")
      .mkString("\nUNION ALL ")
    s"WITH cells AS (SELECT ${cellsSql(nCols)} FROM m)\n$rows"
  }
}
