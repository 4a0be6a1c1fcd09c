package repro.mini

import org.scalacheck.{Gen, Prop, Properties}
import repro.core.TondIR.{TBin, Term}
import repro.frontend.Dsl._

/** ScalaCheck properties for the MiniPandas interpreter (the "Python"
  * baseline): expression algebra, LIKE semantics, relational identities. */
object MiniProps extends Properties("MiniPandas") {

  private val schema = Vector("a", "b", "s")
  private def row(a: Double, b: Double, s: String): Array[Any] = Array(a, b, s)
  private def ev(e: Term, r: Array[Any]): Any = MiniPandas.eval(e, schema, r)

  private val numGen = Gen.chooseNum(-1e6, 1e6)
  private val strGen = Gen.listOfN(6, Gen.alphaNumChar).map(_.mkString)

  property("arithmetic matches double semantics") = Prop.forAll(numGen, numGen) { (x, y) =>
    val r = row(x, y, "")
    ev(col("a") + col("b"), r).asInstanceOf[Double] == x + y &&
    ev(col("a") * col("b"), r).asInstanceOf[Double] == x * y &&
    ev(col("a") - col("b"), r).asInstanceOf[Double] == x - y
  }

  property("comparisons are total and consistent") = Prop.forAll(numGen, numGen) { (x, y) =>
    val r = row(x, y, "")
    val lt = ev(col("a") < col("b"), r).asInstanceOf[Boolean]
    val ge = ev(col("a") >= col("b"), r).asInstanceOf[Boolean]
    lt != ge
  }

  property("a comparison with NULL is never true, as in SQL") = Prop.forAll(numGen) { x =>
    val r: Array[Any] = Array(x, null, "")
    Seq("=", "<>", "<", "<=", ">", ">=").forall(op =>
      ev(TBin(op, col("a"), col("b")), r) == false && ev(TBin(op, col("b"), col("a")), r) == false)
  }

  property("if-then-else selects by condition") = Prop.forAll(numGen, numGen) { (x, y) =>
    val r = row(x, y, "")
    val out = ev(when(col("a") > col("b"), lit(1), lit(0)), r)
    (out == 1L) == (x > y)
  }

  property("LIKE %infix% matches substring containment") = Prop.forAll(strGen, strGen) { (s, pat) =>
    val r = row(0, 0, s)
    val m = ev(col("s").like(s"%$pat%"), r).asInstanceOf[Boolean]
    m == s.contains(pat)
  }

  property("LIKE prefix% matches startsWith") = Prop.forAll(strGen, strGen) { (s, pat) =>
    val r = row(0, 0, s)
    ev(col("s").like(s"$pat%"), r).asInstanceOf[Boolean] == s.startsWith(pat)
  }

  property("IN-list matches membership") = Prop.forAll(Gen.listOf(numGen), numGen) { (xs, x) =>
    val r = row(x, 0, "")
    ev(col("a").in(xs: _*), r).asInstanceOf[Boolean] == xs.contains(x)
  }

  private def tbl(rows: List[(Double, Double, String)]): MiniPandas.Table =
    MiniPandas.Table(schema, rows.toVector.map { case (a, b, s) => row(a, b, s) })

  private val rowsGen = Gen.listOf(Gen.zip(numGen, numGen, Gen.oneOf("x", "y", "z")))

  property("filter then count equals count of predicate") = Prop.forAll(rowsGen) { rows =>
    val inputs = Map("t" -> tbl(rows))
    implicit val cat: repro.core.Catalog = repro.core.Catalog.empty.withTable("t", schema)
    val out = MiniPandas.run(table("t").filter(col("a") > lit(0.0)), inputs)
    out.rows.size == rows.count(_._1 > 0.0)
  }

  property("groupby sum partitions the total") = Prop.forAll(rowsGen) { rows =>
    val inputs = Map("t" -> tbl(rows))
    implicit val cat: repro.core.Catalog = repro.core.Catalog.empty.withTable("t", schema)
    val out = MiniPandas.run(table("t").groupby("s").agg(AggSpec("tot", "sum", col("a"))), inputs)
    val total = out.rows.map(r => r(1).asInstanceOf[Double]).sum
    math.abs(total - rows.map(_._1).sum) <= 1e-6 * (1 + math.abs(rows.map(_._1).sum))
  }

  property("distinct row count equals distinct key count") = Prop.forAll(rowsGen) { rows =>
    val inputs = Map("t" -> tbl(rows))
    implicit val cat: repro.core.Catalog = repro.core.Catalog.empty.withTable("t", schema)
    val out = MiniPandas.run(table("t").unique("s"), inputs)
    out.rows.size == rows.map(_._3).distinct.size
  }

  property("inner self-merge on a unique key preserves row count") = Prop.forAll(rowsGen) { rows =>
    val uniq = rows.zipWithIndex.map { case ((a, b, s), i) => (i.toDouble, b, s) }
    val inputs = Map("t" -> tbl(uniq))
    implicit val cat: repro.core.Catalog = repro.core.Catalog.empty.withTable("t", schema)
    val d = table("t")
    val out = MiniPandas.run(d.merge(d, on = Seq("a")), inputs)
    out.rows.size == uniq.size
  }

  property("sort is a permutation and ordered") = Prop.forAll(rowsGen) { rows =>
    val inputs = Map("t" -> tbl(rows))
    implicit val cat: repro.core.Catalog = repro.core.Catalog.empty.withTable("t", schema)
    val out = MiniPandas.run(table("t").sortValues(Seq("a"), Seq(true)), inputs)
    val as = out.rows.map(_(0).asInstanceOf[Double])
    as.size == rows.size && as.zip(as.drop(1)).forall { case (x, y) => x <= y }
  }
}
