package repro.tensor

import repro.{InputSet, Prog, SparkSpec, TestData}
import repro.TestData.{duckSql, miniPandas, sparkGen}
import repro.core.Catalog
import repro.core.TondIR.NameGen
import repro.data.NotebookData
import repro.frontend.Dsl.{Df, EinsumOp, Source}

/** Einsum kernel tests (§III-D, Table VI): every spec `lowerDense` accepts
  * runs as a DSL program on every path of `TestData` at each of its levels,
  * and the generic sparse path as TondIR on both emitters, each checked
  * against DuckDB computing the same contraction from the input tables.
  * Where only row counts break NumPy's shape rules, the compiled paths
  * answer and MiniPandas raises — the deviation DESIGN.md documents. */
class EinsumSpec extends SparkSpec {

  test("normalize renames indices in first-appearance order (§III-D)") {
    assert(Einsum.normalize("ab,cc->ba") == "ij,kk->ji")
    assert(Einsum.normalize("ba->ab") == "ij->ji")
    assert(Einsum.normalize("qq->q") == "ii->i")
  }

  // ------------------------------------------------------------ execution
  private val Rows = 64L
  private val Cols = 3
  private lazy val cat = Catalog.empty.withMatrix("m", Cols).withMatrix("m2", Cols).withMatrix("sq", Cols)
    .withMatrix("vv", 1).withMatrix("vw", 1).withMatrix("v2", 1).withCoo("m_coo")
    .withTable("s1", Vector("c0")).withTable("s2", Vector("c0"))
  private lazy val in = new InputSet(Map(
    "m"     -> NotebookData.matrixDense(spark, Rows, Cols, 1.0, seed = 1),
    "m2"    -> NotebookData.matrixDense(spark, Rows, Cols, 1.0, seed = 2),
    "sq"    -> NotebookData.matrixDense(spark, Cols.toLong, Cols, 1.0, seed = 6),
    "vv"    -> NotebookData.matrixDense(spark, Rows, 1, 1.0, seed = 3),
    "vw"    -> NotebookData.matrixDense(spark, Rows, 1, 1.0, seed = 7),
    "v2"    -> NotebookData.matrixDense(spark, Cols.toLong, 1, 1.0, seed = 4),
    "s1"    -> spark.range(1).selectExpr("CAST(2.5 AS DOUBLE) AS c0"),
    "s2"    -> spark.range(1).selectExpr("CAST(-4.0 AS DOUBLE) AS c0"),
    "m_coo" -> NotebookData.matrixCoo(spark, Rows, Cols, 0.4, seed = 5)))

  /** `np.einsum(spec, …)` over the named inputs, answering `expected`. */
  private def einsum(spec: String, rels: String*)(expected: String): Prog =
    Prog(spec, cat, Right(new Df(EinsumOp(spec, rels.toVector.map(r => Source(r, cat.schema(r)))))), expected)

  /** Check the einsum of `spec` over `rels` on every path. */
  private def checkDense(spec: String, rels: String*)(expected: String): Unit =
    TestData.check(einsum(spec, rels: _*)(expected), in)

  /** The compiled paths answer where MiniPandas, like NumPy, raises. */
  private def checkDeviation(spec: String, rels: String*)(expected: String): Unit = {
    val p = einsum(spec, rels: _*)(expected)
    TestData.check(p, in, TestData.paths.filterNot(_ eq miniPandas))
    intercept[IllegalArgumentException](miniPandas.setup(p, 0, in)())
  }

  /** Check the sparse (COO) lowering of `spec` over `n` copies of `m_coo`. */
  private def checkSparse(spec: String, n: Int)(expected: String): Unit =
    TestData.check(Prog(spec, cat, Left(Einsum.lowerSparse(spec, Vector.fill(n)(Einsum.CooOp("m_coo", 2)),
      new NameGen("s"))), expected), in, Seq(sparkGen, duckSql))

  private val sumCols = (0 until Cols).map(j => s"c$j").mkString(" + ")

  test("ES1 'i->' vector total matches DuckDB") {
    checkDense("i->", "vv")("SELECT SUM(c0) AS c0 FROM vv")
  }

  test("ES1/'ij->' total sum matches DuckDB") {
    checkDense("ij->", "m")(s"SELECT SUM($sumCols) AS c0 FROM m")
  }

  test("ES2 'ij->i' row sums match DuckDB") {
    checkDense("ij->i", "m")(s"SELECT id, $sumCols AS c0 FROM m")
  }

  test("'ij->j' column sums match DuckDB") {
    val branches = (0 until Cols).map(j => s"SELECT $j AS id, s$j AS c0 FROM t").mkString(" UNION ALL ")
    checkDense("ij->j", "m")(
      s"WITH t AS (SELECT ${(0 until Cols).map(j => s"SUM(c$j) AS s$j").mkString(", ")} FROM m) $branches")
  }

  private val diagCase = (0 until Cols).map(j => s"WHEN id = $j THEN c$j").mkString(" ")

  test("ES3 'ii->i' on the non-square m pins the documented deviation") {
    // The compiled paths read 0.0 past the last column; MiniPandas raises, as NumPy does.
    checkDeviation("ii->i", "m")(
      s"SELECT id, CASE $diagCase ELSE 0.0 END AS c0 " +
      s"FROM m WHERE id < $Cols UNION ALL SELECT id, 0.0 AS c0 FROM m WHERE id >= $Cols")
  }

  test("ES3 'ii->i' diagonal of the square sq matches DuckDB") {
    checkDense("ii->i", "sq")(s"SELECT id, CASE $diagCase END AS c0 FROM sq")
  }

  test("'ii->' trace matches DuckDB") {
    checkDense("ii->", "sq")(s"SELECT SUM(CASE $diagCase END) AS c0 FROM sq")
  }

  test("ES5 ',->' scalar product matches DuckDB") {
    checkDense(",->", "s1", "s2")("SELECT a.c0*b.c0 AS c0 FROM s1 a, s2 b")
  }

  test("ES6 ',ij->ij' and 'ij,->ij' scalar times matrix match DuckDB") {
    val expected = s"SELECT m.id AS id, ${(0 until Cols).map(j => s"s1.c0*m.c$j AS c$j").mkString(", ")} FROM s1, m"
    checkDense(",ij->ij", "s1", "m")(expected)
    checkDense("ij,->ij", "m", "s1")(expected)
  }

  test("ES7 'ij,ij->ij' Hadamard product matches DuckDB") {
    checkDense("ij,ij->ij", "m", "m2")(
      s"SELECT m.id AS id, ${(0 until Cols).map(j => s"m.c$j*m2.c$j AS c$j").mkString(", ")} " +
      "FROM m JOIN m2 ON m.id = m2.id")
  }

  test("'i,i->i' elementwise vector product matches DuckDB") {
    checkDense("i,i->i", "vv", "vw")(
      "SELECT vv.id AS id, vv.c0*vw.c0 AS c0 FROM vv JOIN vw ON vv.id = vw.id")
  }

  test("'i,i->' inner product matches DuckDB") {
    checkDense("i,i->", "vv", "vw")(
      "SELECT SUM(vv.c0*vw.c0) AS c0 FROM vv JOIN vw ON vv.id = vw.id")
  }

  test("'ij,ij->' full dot product matches DuckDB") {
    checkDense("ij,ij->", "m", "m2")(
      s"SELECT SUM(${(0 until Cols).map(j => s"m.c$j*m2.c$j").mkString(" + ")}) AS c0 FROM m JOIN m2 ON m.id = m2.id")
  }

  test("ES8 'ij,ik->jk' batch outer (covariance) matches DuckDB") {
    val cells = (for (j <- 0 until Cols; k <- 0 until Cols)
      yield s"SUM(a.c$j*b.c$k) AS p${j}_$k").mkString(", ")
    val rows = (0 until Cols).map(j =>
      s"SELECT $j AS id, ${(0 until Cols).map(k => s"p${j}_$k AS c$k").mkString(", ")} FROM t").mkString(" UNION ALL ")
    checkDense("ij,ik->jk", "m", "m2")(
      s"WITH t AS (SELECT $cells FROM m a JOIN m2 b ON a.id = b.id) $rows")
  }

  test("'ij,j->i' matrix-vector product matches DuckDB") {
    val dot = (0 until Cols).map(j => s"m.c$j * (SELECT c0 FROM v2 WHERE id = $j)").mkString(" + ")
    checkDense("ij,j->i", "m", "v2")(s"SELECT id, $dot AS c0 FROM m")
  }

  /** The reference for `m` times the right operand `r` with `Cols` rows. */
  private def matMulSql(r: String): String = {
    val dots = (0 until Cols).map { k =>
      (0 until Cols).map(j => s"m.c$j * (SELECT c$k FROM $r WHERE id = $j)").mkString(" + ") + s" AS c$k"
    }.mkString(", ")
    s"SELECT m.id AS id, $dots FROM m"
  }

  test("'ij,jk->ik' on the 64-row m2 pins the documented deviation") {
    // The compiled paths read m2's rows 0..2 only; MiniPandas raises, as NumPy does.
    checkDeviation("ij,jk->ik", "m", "m2")(matMulSql("m2"))
  }

  test("'ij,jk->ik' matmul m × sq (broadcast right operand) matches DuckDB") {
    checkDense("ij,jk->ik", "m", "sq")(matMulSql("sq"))
  }

  test("MiniPandas answers the paper's worked example 'ab,cc->ba'; lowering rejects it") {
    // (b, a) ↦ m[a][b] · trace(sq): a 3×64 result.
    val branches = (0 until Cols).map { b =>
      s"SELECT $b AS id, " +
      (0 until Rows.toInt).map(a => s"SUM(CASE WHEN m.id = $a THEN m.c$b * tr.t END) AS c$a").mkString(", ") +
      " FROM m, tr"
    }.mkString(" UNION ALL ")
    miniPandas.check(einsum("ab,cc->ba", "m", "sq")(
      s"WITH tr AS (SELECT SUM(CASE $diagCase END) AS t FROM sq) $branches"), 0, in)
    intercept[RuntimeException] {
      Einsum.lowerDense("ab,cc->ba", Vector(Einsum.DenseOp("m", Cols), Einsum.DenseOp("sq", Cols)), new NameGen("t"))
    }
  }

  test("generic sparse einsum 'ij,ji->' (trace of product) matches DuckDB") {
    checkSparse("ij,ji->", 2)(
      "SELECT SUM(a.v*b.v) AS v FROM m_coo a JOIN m_coo b ON a.i = b.j AND a.j = b.i")
  }

  test("generic sparse einsum handles 3 operands") {
    checkSparse("ij,jk,ki->", 3)(
      "SELECT SUM(a.v*b.v*c.v) AS v FROM m_coo a JOIN m_coo b ON a.j = b.i " +
      "JOIN m_coo c ON b.j = c.i AND c.j = a.i")
  }

  test("unsupported dense specs fail loudly, not silently") {
    val ng = new NameGen("t")
    intercept[RuntimeException] {
      Einsum.lowerDense("ijk,k->ij", Vector(Einsum.DenseOp("m", 3), Einsum.DenseOp("vv", 1)), ng)
    }
    // NumPy rejects a repeated output index.
    intercept[RuntimeException] {
      Einsum.lowerDense("i,i->ii", Vector(Einsum.DenseOp("vv", 1), Einsum.DenseOp("vv", 1)), ng)
    }
    // Widths that disagree, and an order that does not match the spec: the
    // products used to zip the columns and drop the extra ones.
    intercept[IllegalArgumentException] {
      Einsum.lowerDense("ij,ij->ij", Vector(Einsum.DenseOp("m", 3), Einsum.DenseOp("m2", 2)), ng)
    }
    intercept[IllegalArgumentException] {
      Einsum.lowerDense("i,i->", Vector(Einsum.DenseOp("m", 3), Einsum.DenseOp("vv", 1)), ng)
    }
    // One operand for two inputs.
    intercept[IllegalArgumentException] {
      Einsum.lowerDense(",->", Vector(Einsum.DenseOp("s1", 0)), ng)
    }
  }
}
