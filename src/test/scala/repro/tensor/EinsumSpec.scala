package repro.tensor

import repro.{InputSet, Oracle, SparkSpec}
import repro.core.{Catalog, SparkGen, SqlGen}
import repro.core.TondIR.{NameGen, Program}
import repro.data.NotebookData
import repro.frontend.Dsl.{EinsumOp, Source}
import repro.mini.MiniPandas

/** Einsum kernel tests (§III-D, Table VI): every spec `lowerDense` accepts
  * runs through SqlGen's DuckDB SQL, SparkGen's plan and the MiniPandas
  * baseline, and the generic sparse path through both emitters, each
  * checked against DuckDB computing the same contraction from the input
  * tables. Where only row counts break NumPy's shape rules, the compiled
  * paths answer and MiniPandas raises — the deviation DESIGN.md documents. */
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

  /** Check SqlGen's DuckDB SQL and SparkGen's plan for `p` against `expected`. */
  private def check(p: Program, expected: String): Unit = {
    Oracle.assertSqlEquivalent(in.duck, SqlGen.programSql(p, cat, SqlGen.DuckDialect), expected)
    Oracle.assertEquivalentOn(in.duck, SparkGen.compile(p, in.tables, cat, spark), expected)
  }

  /** `check` the dense lowering of `spec` over `ops`: (relation, value
    * columns), where a scalar `(c0)` has 0. */
  private def checkLowered(spec: String, ops: (String, Int)*)(expected: String): Unit =
    check(Einsum.lowerDense(spec, ops.toVector.map { case (r, n) => Einsum.DenseOp(r, n) }, new NameGen("t")), expected)

  /** MiniPandas' answer to the einsum of `spec` over the named inputs. */
  private def mini(spec: String, rels: String*): MiniPandas.Table =
    MiniPandas.run(EinsumOp(spec, rels.toVector.map(r => Source(r, in.mini(r).schema))), in.mini)

  private def checkMini(spec: String, rels: String*)(expected: String): Unit = {
    val t = mini(spec, rels: _*)
    Oracle.assertRowsEquivalentOn(in.duck, t.schema, t.rows.map(_.toSeq), expected)
  }

  /** `checkLowered` and `checkMini`: all three paths answer `expected`. */
  private def checkDense(spec: String, ops: (String, Int)*)(expected: String): Unit = {
    checkLowered(spec, ops: _*)(expected)
    checkMini(spec, ops.map(_._1): _*)(expected)
  }

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

  private val diagCase = (0 until Cols).map(j => s"WHEN id = $j THEN c$j").mkString(" ")

  test("ES3 'ii->i' on the non-square m pins the documented deviation") {
    // The compiled paths read 0.0 past the last column; MiniPandas raises, as NumPy does.
    checkLowered("ii->i", "m" -> Cols)(
      s"SELECT id, CASE $diagCase ELSE 0.0 END AS c0 " +
      s"FROM m WHERE id < $Cols UNION ALL SELECT id, 0.0 AS c0 FROM m WHERE id >= $Cols")
    intercept[IllegalArgumentException](mini("ii->i", "m"))
  }

  test("ES3 'ii->i' diagonal of the square sq matches DuckDB") {
    checkDense("ii->i", "sq" -> Cols)(s"SELECT id, CASE $diagCase END AS c0 FROM sq")
  }

  test("'ii->' trace matches DuckDB") {
    checkDense("ii->", "sq" -> Cols)(s"SELECT SUM(CASE $diagCase END) AS c0 FROM sq")
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

  /** The reference for `m` times the right operand `r` with `Cols` rows. */
  private def matMulSql(r: String): String = {
    val dots = (0 until Cols).map { k =>
      (0 until Cols).map(j => s"m.c$j * (SELECT c$k FROM $r WHERE id = $j)").mkString(" + ") + s" AS c$k"
    }.mkString(", ")
    s"SELECT m.id AS id, $dots FROM m"
  }

  test("'ij,jk->ik' on the 64-row m2 pins the documented deviation") {
    // The compiled paths read m2's rows 0..2 only; MiniPandas raises, as NumPy does.
    checkLowered("ij,jk->ik", "m" -> Cols, "m2" -> Cols)(matMulSql("m2"))
    intercept[IllegalArgumentException](mini("ij,jk->ik", "m", "m2"))
  }

  test("'ij,jk->ik' matmul m × sq (broadcast right operand) matches DuckDB") {
    checkDense("ij,jk->ik", "m" -> Cols, "sq" -> Cols)(matMulSql("sq"))
  }

  test("MiniPandas answers the paper's worked example 'ab,cc->ba'; lowering rejects it") {
    // (b, a) ↦ m[a][b] · trace(sq): a 3×64 result.
    val branches = (0 until Cols).map { b =>
      s"SELECT $b AS id, " +
      (0 until Rows.toInt).map(a => s"SUM(CASE WHEN m.id = $a THEN m.c$b * tr.t END) AS c$a").mkString(", ") +
      " FROM m, tr"
    }.mkString(" UNION ALL ")
    checkMini("ab,cc->ba", "m", "sq")(s"WITH tr AS (SELECT SUM(CASE $diagCase END) AS t FROM sq) $branches")
    intercept[RuntimeException] {
      Einsum.lowerDense("ab,cc->ba", Vector(Einsum.DenseOp("m", Cols), Einsum.DenseOp("sq", Cols)), new NameGen("t"))
    }
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
