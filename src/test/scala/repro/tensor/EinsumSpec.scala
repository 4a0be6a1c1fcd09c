package repro.tensor

import repro.{InputSet, Oracle, SparkSpec}
import repro.core.{Catalog, SparkGen, SqlGen, TondIR}
import repro.core.TondIR.{NameGen, Program}
import repro.data.NotebookData

/** Einsum planner and kernel tests (§III-D, Table VI): symbolic kernel
  * reduction — including the paper's `'ab,cc->ba'` walk-through — and
  * end-to-end execution of every dense kernel plus the generic sparse path,
  * checked against DuckDB computing the same contraction from the dense
  * table. */
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
  private lazy val cat = Catalog.empty.withMatrix("m", Cols).withMatrix("m2", Cols)
    .withMatrix("vv", 1).withMatrix("v2", 1).withCoo("m_coo")
  private lazy val in = new InputSet(Map(
    "m"     -> NotebookData.matrixDense(spark, Rows, Cols, 1.0, seed = 1),
    "m2"    -> NotebookData.matrixDense(spark, Rows, Cols, 1.0, seed = 2),
    "vv"    -> NotebookData.matrixDense(spark, Rows, 1, 1.0, seed = 3),
    "v2"    -> NotebookData.matrixDense(spark, Cols.toLong, 1, 1.0, seed = 4),
    "m_coo" -> NotebookData.matrixCoo(spark, Rows, Cols, 0.4, seed = 5)))

  private def runDense(spec: String, ops: (String, Int)*): org.apache.spark.sql.DataFrame = {
    val ng = new NameGen("t")
    val lo = Einsum.lowerDense(spec, ops.toVector.map { case (r, n) =>
      Einsum.DenseOp(r, if (n == 1) 1 else 2, n) }, ng)
    val df = SparkGen.compile(Program(lo.rules, lo.rel), in.tables, cat, spark)
    lo.order match {
      case 0 => df.toDF("c0")
      case 1 => df.toDF("id", "c0")
      case _ => df
    }
  }

  private val sumCols = (0 until Cols).map(j => s"c$j").mkString(" + ")

  test("ES1/'ij->' total sum matches DuckDB") {
    Oracle.assertEquivalentOn(in.duck, runDense("ij->", "m" -> Cols),
      s"SELECT SUM($sumCols) AS c0 FROM m")
  }

  test("ES2 'ij->i' row sums match DuckDB") {
    Oracle.assertEquivalentOn(in.duck, runDense("ij->i", "m" -> Cols),
      s"SELECT id, $sumCols AS c0 FROM m")
  }

  test("'ij->j' column sums match DuckDB") {
    val branches = (0 until Cols).map(j => s"SELECT $j AS id, s$j AS c0 FROM t").mkString(" UNION ALL ")
    Oracle.assertEquivalentOn(in.duck, runDense("ij->j", "m" -> Cols),
      s"WITH t AS (SELECT ${(0 until Cols).map(j => s"SUM(c$j) AS s$j").mkString(", ")} FROM m) $branches")
  }

  test("ES3 'ii->i' diagonal matches DuckDB") {
    Oracle.assertEquivalentOn(in.duck, runDense("ii->i", "m" -> Cols),
      s"SELECT id, CASE ${(0 until Cols).map(j => s"WHEN id = $j THEN c$j").mkString(" ")} ELSE 0.0 END AS c0 " +
      s"FROM m WHERE id < $Cols UNION ALL SELECT id, 0.0 AS c0 FROM m WHERE id >= $Cols")
  }

  test("ES7 'ij,ij->ij' Hadamard product matches DuckDB") {
    Oracle.assertEquivalentOn(in.duck, runDense("ij,ij->ij", "m" -> Cols, "m2" -> Cols),
      s"SELECT m.id AS id, ${(0 until Cols).map(j => s"m.c$j*m2.c$j AS c$j").mkString(", ")} " +
      "FROM m JOIN m2 ON m.id = m2.id")
  }

  test("'i,i->' inner product matches DuckDB") {
    Oracle.assertEquivalentOn(in.duck, runDense("i,i->", "vv" -> 1, "vv" -> 1),
      "SELECT SUM(c0*c0) AS c0 FROM vv")
  }

  test("ES8 'ij,ik->jk' batch outer (covariance) matches DuckDB") {
    val cells = (for (j <- 0 until Cols; k <- 0 until Cols)
      yield s"SUM(a.c$j*b.c$k) AS p${j}_$k").mkString(", ")
    val rows = (0 until Cols).map(j =>
      s"SELECT $j AS id, ${(0 until Cols).map(k => s"p${j}_$k AS c$k").mkString(", ")} FROM t").mkString(" UNION ALL ")
    Oracle.assertEquivalentOn(in.duck, runDense("ij,ik->jk", "m" -> Cols, "m2" -> Cols),
      s"WITH t AS (SELECT $cells FROM m a JOIN m2 b ON a.id = b.id) $rows")
  }

  test("'ij,j->i' matrix-vector product matches DuckDB") {
    val dot = (0 until Cols).map(j => s"m.c$j * (SELECT c0 FROM v2 WHERE id = $j)").mkString(" + ")
    Oracle.assertEquivalentOn(in.duck, runDense("ij,j->i", "m" -> Cols, "v2" -> 1),
      s"SELECT id, $dot AS c0 FROM m")
  }

  test("'ij,jk->ik' matmul (broadcast right operand) matches DuckDB") {
    val dots = (0 until Cols).map { k =>
      (0 until Cols).map(j => s"m.c$j * (SELECT c$k FROM m2 WHERE id = $j)").mkString(" + ") + s" AS c$k"
    }.mkString(", ")
    Oracle.assertEquivalentOn(in.duck, runDense("ij,jk->ik", "m" -> Cols, "m2" -> Cols),
      s"SELECT m.id AS id, $dots FROM m")
  }

  test("generic sparse einsum 'ij,ji->' (trace of product) matches DuckDB") {
    val ng = new NameGen("s")
    val lo = Einsum.lowerSparse("ij,ji->",
      Vector(Einsum.CooOp("m_coo", 2), Einsum.CooOp("m_coo", 2)), ng)
    val df = SparkGen.compile(Program(lo.rules, lo.rel), in.tables, cat, spark).toDF("v")
    Oracle.assertEquivalentOn(in.duck, df,
      "SELECT SUM(a.v*b.v) AS v FROM m_coo a JOIN m_coo b ON a.i = b.j AND a.j = b.i")
  }

  test("generic sparse einsum handles 3 operands") {
    val ng = new NameGen("s")
    val lo = Einsum.lowerSparse("ij,jk,ki->",
      Vector.fill(3)(Einsum.CooOp("m_coo", 2)), ng)
    val df = SparkGen.compile(Program(lo.rules, lo.rel), in.tables, cat, spark).toDF("v")
    Oracle.assertEquivalentOn(in.duck, df,
      "SELECT SUM(a.v*b.v*c.v) AS v FROM m_coo a JOIN m_coo b ON a.j = b.i " +
      "JOIN m_coo c ON b.j = c.i AND c.j = a.i")
  }

  test("unsupported dense specs fail loudly, not silently") {
    val ng = new NameGen("t")
    intercept[RuntimeException] {
      Einsum.lowerDense("ijk,k->ij", Vector(Einsum.DenseOp("m", 2, 3), Einsum.DenseOp("vv", 1, 1)), ng)
    }
  }
}
