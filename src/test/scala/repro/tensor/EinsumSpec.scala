package repro.tensor

import repro.{InputSet, Oracle, SparkSpec}
import repro.core.{Catalog, SparkGen, SqlGen}
import repro.core.TondIR.{NameGen, Program}
import repro.data.NotebookData

/** Einsum planner and kernel tests (§III-D, Table VI): symbolic kernel
  * reduction — including the paper's `'ab,cc->ba'` walk-through — and
  * end-to-end execution of every spec `lowerDense` accepts plus the generic
  * sparse path, each through SqlGen's DuckDB SQL and SparkGen's plan,
  * checked against DuckDB computing the same contraction from the input
  * tables. */
class EinsumSpec extends SparkSpec {

  // ------------------------------------------------------------- planning
  test("normalize renames indices in first-appearance order (§III-D)") {
    assert(Einsum.normalize("ab,cc->ba") == "ij,kk->ji")
    assert(Einsum.normalize("ba->ab") == "ij->ji")
    assert(Einsum.normalize("qq->q") == "ii->i")
  }

  test("paper's worked example 'ab,cc->ba' reduces to ES3,ES1,swap,ES4,ES6") {
    assert(Einsum.plan("ab,cc->ba") == Vector("ES3", "ES1", "swap", "ES4", "ES6"))
  }

  test("fundamental kernels plan to themselves (Table VI)") {
    assert(Einsum.plan("i->") == Vector("ES1"))
    assert(Einsum.plan("ij->i") == Vector("ES2"))
    assert(Einsum.plan("ii->i") == Vector("ES3"))
    assert(Einsum.plan("ij->ji") == Vector("ES4"))
    assert(Einsum.plan(",->") == Vector("ES5"))
    assert(Einsum.plan(",ij->ij") == Vector("ES6"))
    assert(Einsum.plan("ij,ij->ij") == Vector("ES7"))
    assert(Einsum.plan("ij,ik->jk") == Vector("ES8"))
    assert(Einsum.plan("ij,ik->ij") == Vector("ES9"))
  }

  test("composite specs reduce to kernel chains") {
    assert(Einsum.plan("ii->") == Vector("ES3", "ES1"))
    assert(Einsum.plan("ij->") == Vector("ES2", "ES1"))
    assert(Einsum.plan("ij,j->i") == Vector("BCAST", "ES9"))
    assert(Einsum.plan("ij,jk->ik") == Vector("BCAST", "MM"))
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

  /** Check SqlGen's DuckDB SQL and SparkGen's plan for `p` against `expected`. */
  private def check(p: Program, expected: String): Unit = {
    Oracle.assertSqlEquivalent(in.duck, SqlGen.programSql(p, cat, SqlGen.DuckDialect), expected)
    Oracle.assertEquivalentOn(in.duck, SparkGen.compile(p, in.tables, cat, spark), expected)
  }

  /** `check` the dense lowering of `spec` over `ops`: (relation, value
    * columns), where a scalar `(c0)` has 0. */
  private def checkDense(spec: String, ops: (String, Int)*)(expected: String): Unit =
    check(Einsum.lowerDense(spec, ops.toVector.map { case (r, n) => Einsum.DenseOp(r, n) }, new NameGen("t")), expected)

  private val sumCols = (0 until Cols).map(j => s"c$j").mkString(" + ")

  test("ES1 'i->' vector total matches DuckDB") {
    checkDense("i->", "vv" -> 1)("SELECT SUM(c0) AS c0 FROM vv")
  }

  test("ES1/'ij->' total sum matches DuckDB") {
    checkDense("ij->", "m" -> Cols)(s"SELECT SUM($sumCols) AS c0 FROM m")
  }

  test("ES2 'ij->i' row sums match DuckDB") {
    checkDense("ij->i", "m" -> Cols)(s"SELECT id, $sumCols AS c0 FROM m")
  }

  test("'ij->j' column sums match DuckDB") {
    val branches = (0 until Cols).map(j => s"SELECT $j AS id, s$j AS c0 FROM t").mkString(" UNION ALL ")
    checkDense("ij->j", "m" -> Cols)(
      s"WITH t AS (SELECT ${(0 until Cols).map(j => s"SUM(c$j) AS s$j").mkString(", ")} FROM m) $branches")
  }

  test("ES3 'ii->i' diagonal matches DuckDB") {
    checkDense("ii->i", "m" -> Cols)(
      s"SELECT id, CASE ${(0 until Cols).map(j => s"WHEN id = $j THEN c$j").mkString(" ")} ELSE 0.0 END AS c0 " +
      s"FROM m WHERE id < $Cols UNION ALL SELECT id, 0.0 AS c0 FROM m WHERE id >= $Cols")
  }

  test("'ii->' trace matches DuckDB") {
    checkDense("ii->", "sq" -> Cols)(
      s"SELECT SUM(CASE ${(0 until Cols).map(j => s"WHEN id = $j THEN c$j").mkString(" ")} END) AS c0 FROM sq")
  }

  test("ES5 ',->' scalar product matches DuckDB") {
    checkDense(",->", "s1" -> 0, "s2" -> 0)("SELECT a.c0*b.c0 AS c0 FROM s1 a, s2 b")
  }

  test("ES6 ',ij->ij' and 'ij,->ij' scalar times matrix match DuckDB") {
    val expected = s"SELECT m.id AS id, ${(0 until Cols).map(j => s"s1.c0*m.c$j AS c$j").mkString(", ")} FROM s1, m"
    checkDense(",ij->ij", "s1" -> 0, "m" -> Cols)(expected)
    checkDense("ij,->ij", "m" -> Cols, "s1" -> 0)(expected)
  }

  test("ES7 'ij,ij->ij' Hadamard product matches DuckDB") {
    checkDense("ij,ij->ij", "m" -> Cols, "m2" -> Cols)(
      s"SELECT m.id AS id, ${(0 until Cols).map(j => s"m.c$j*m2.c$j AS c$j").mkString(", ")} " +
      "FROM m JOIN m2 ON m.id = m2.id")
  }

  test("'i,i->i' elementwise vector product matches DuckDB") {
    checkDense("i,i->i", "vv" -> 1, "vw" -> 1)(
      "SELECT vv.id AS id, vv.c0*vw.c0 AS c0 FROM vv JOIN vw ON vv.id = vw.id")
  }

  test("'i,i->' inner product matches DuckDB") {
    checkDense("i,i->", "vv" -> 1, "vw" -> 1)(
      "SELECT SUM(vv.c0*vw.c0) AS c0 FROM vv JOIN vw ON vv.id = vw.id")
  }

  test("'ij,ij->' full dot product matches DuckDB") {
    checkDense("ij,ij->", "m" -> Cols, "m2" -> Cols)(
      s"SELECT SUM(${(0 until Cols).map(j => s"m.c$j*m2.c$j").mkString(" + ")}) AS c0 FROM m JOIN m2 ON m.id = m2.id")
  }

  test("ES8 'ij,ik->jk' batch outer (covariance) matches DuckDB") {
    val cells = (for (j <- 0 until Cols; k <- 0 until Cols)
      yield s"SUM(a.c$j*b.c$k) AS p${j}_$k").mkString(", ")
    val rows = (0 until Cols).map(j =>
      s"SELECT $j AS id, ${(0 until Cols).map(k => s"p${j}_$k AS c$k").mkString(", ")} FROM t").mkString(" UNION ALL ")
    checkDense("ij,ik->jk", "m" -> Cols, "m2" -> Cols)(
      s"WITH t AS (SELECT $cells FROM m a JOIN m2 b ON a.id = b.id) $rows")
  }

  test("'ij,j->i' matrix-vector product matches DuckDB") {
    val dot = (0 until Cols).map(j => s"m.c$j * (SELECT c0 FROM v2 WHERE id = $j)").mkString(" + ")
    checkDense("ij,j->i", "m" -> Cols, "v2" -> 1)(s"SELECT id, $dot AS c0 FROM m")
  }

  test("'ij,jk->ik' matmul (broadcast right operand) matches DuckDB") {
    val dots = (0 until Cols).map { k =>
      (0 until Cols).map(j => s"m.c$j * (SELECT c$k FROM m2 WHERE id = $j)").mkString(" + ") + s" AS c$k"
    }.mkString(", ")
    checkDense("ij,jk->ik", "m" -> Cols, "m2" -> Cols)(s"SELECT m.id AS id, $dots FROM m")
  }

  test("generic sparse einsum 'ij,ji->' (trace of product) matches DuckDB") {
    check(Einsum.lowerSparse("ij,ji->", Vector(Einsum.CooOp("m_coo", 2), Einsum.CooOp("m_coo", 2)), new NameGen("s")),
      "SELECT SUM(a.v*b.v) AS v FROM m_coo a JOIN m_coo b ON a.i = b.j AND a.j = b.i")
  }

  test("generic sparse einsum handles 3 operands") {
    check(Einsum.lowerSparse("ij,jk,ki->", Vector.fill(3)(Einsum.CooOp("m_coo", 2)), new NameGen("s")),
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
  }
}
