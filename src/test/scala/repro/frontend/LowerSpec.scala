package repro.frontend

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Catalog, TondIR}
import repro.core.TondIR._
import Dsl._

/** Structural tests for DSL → TondIR translation (Table V rules and the
  * §III-C challenges: implicit renaming, implicit joins, pivot). */
class LowerSpec extends AnyFunSuite {

  implicit private val cat: Catalog = Catalog.empty
    .withTable("df", Vector("a", "b", "c"), unique = Set("a"))
    .withTable("df2", Vector("a", "c", "d"), unique = Set("a"))

  private def lower(d: Df) = Lower.lower(d, cat)

  test("df[col] — column selection becomes a projection rule") {
    val p = lower(table("df").select("a"))
    assert(p.rules.size == 1)
    assert(p.rules.head.head.colNames == Vector("a"))
    assert(p.rules.head.relAtoms.head.rel == "df")
  }

  test("df[condition] — filter becomes predicate atoms, schema preserved") {
    val p = lower(table("df").filter((col("b") > lit(10)) && (col("c") === lit("x"))))
    val r = p.rules.head
    assert(r.head.colNames == Vector("a", "b", "c"))
    assert(r.body.count(_.isInstanceOf[PredAtom]) == 2) // conjunction split
  }

  test("df.aggregate — scalar aggregation rule with no grouping") {
    val p = lower(table("df").aggregate(AggSpec("s", "sum", col("b"))))
    val r = p.rules.head
    assert(r.hasAgg && r.head.group.isEmpty)
  }

  test("merge on shared key unifies join variables (Datalog-style)") {
    val p = lower(table("df").merge(table("df2"), on = Seq("a")))
    val r = p.rules.head
    val Vector(l, rr) = r.relAtoms
    assert(l.vars.head == rr.vars.head)           // same var on position of 'a'
    assert(l.vars.tail.intersect(rr.vars.tail).isEmpty)
  }

  test("merge applies Pandas implicit _x/_y renaming to shared columns (§III-C)") {
    val p = lower(table("df").merge(table("df2"), on = Seq("a")))
    assert(p.rules.head.head.colNames == Vector("a", "b", "c_x", "c_y", "d"))
  }

  test("merge with custom suffixes") {
    val d = table("df").merge(table("df2"), on = Seq("a"), suffixes = ("_l", "_r"))
    assert(d.schema == Vector("a", "b", "c_l", "c_r", "d"))
  }

  test("cross merge shares no variables") {
    val p = lower(table("df").crossMerge(table("df2")))
    val Vector(l, rr) = p.rules.head.relAtoms
    assert(l.vars.intersect(rr.vars).isEmpty)
  }

  test("left merge produces an outer_left marker with an ON term (§III-C)") {
    val p = lower(table("df").mergeOn(table("df2"), Seq("a"), Seq("a"), how = "left"))
    val outer = p.rules.head.relAtoms.find(_.outerOn.nonEmpty)
    assert(outer.nonEmpty && outer.get.outerOn.get._1 == "left")
  }

  test("sort_values(...).head(n) merges into a single sort+limit rule (§III-E)") {
    val p = lower(table("df").sortValues(Seq("b"), Seq(false)).head(7))
    assert(p.rules.size == 1)
    val h = p.rules.head.head
    assert(h.sort == Vector(("b", false)) && h.limit.contains(7L))
  }

  test("groupby(col).sum() becomes a grouped aggregate rule") {
    val p = lower(table("df").groupby("a").agg(AggSpec("s", "sum", col("b"))))
    val r = p.rules.head
    assert(r.head.group.size == 1 && r.assigns.head.t.hasAgg)
  }

  test("isin becomes an exists atom correlated by a shared variable") {
    val p = lower(table("df").isin("a", table("df2"), "a"))
    val r = p.rules.head
    val ex = r.body.collectFirst { case e: ExistsAtom => e }.get
    assert(!ex.negated)
    val outerVars = r.relAtoms.head.vars.toSet
    assert(TondIR.allRelAtoms(ex).head.vars.exists(outerVars))
  }

  test("negated isin becomes a not-exists atom") {
    val p = lower(table("df").notin("a", table("df2"), "a"))
    assert(p.rules.head.body.collectFirst { case e: ExistsAtom => e }.get.negated)
  }

  test("pivot_table becomes conditional sums with group (§III-C example)") {
    val p = lower(table("df").pivotTable("a", "b", "c", Seq("v1", "v2", "v3")))
    val r = p.rules.head
    assert(r.head.colNames == Vector("a", "v1", "v2", "v3"))
    assert(r.head.group.size == 1)
    assert(r.assigns.size == 3)
    assert(r.assigns.forall(_.t match {
      case TAgg("sum", TIf(_, _, _), _) => true; case _ => false }))
  }

  test("distinct (unique) sets the DISTINCT head flag") {
    val p = lower(table("df").unique("b"))
    assert(p.rules.head.head.distinct)
  }

  test("to_matrix keeps a UID ordered by the selected columns (§III-E)") {
    val p = lower(new Df(ToMatrix(table("df").op, Vector("b", "c"))))
    val r = p.rules.head
    assert(r.head.colNames == Vector("id", "c0", "c1"))
    assert(r.assigns.exists(_.t match { case TExt("uid", as) => as.size == 2; case _ => false }))
  }

  test("implicit join (alignWith) introduces UID rules joined on the id (§III-C)") {
    val p = lower(table("df").select("a").alignWith(table("df2").select("d")))
    // projection ×2, uid ×2, join = 5 rules
    assert(p.rules.size == 5, TondIR.show(p))
    val join = p.rules.last
    assert(join.head.colNames == Vector("a", "d"))
    assert(join.relAtoms(0).vars.head == join.relAtoms(1).vars.head) // join on uid
    val uidRules = p.rules.filter(_.assigns.exists(_.t match { case TExt("uid", _) => true; case _ => false }))
    assert(uidRules.size == 2)
  }

  test("shared sub-DAGs are lowered once (ANF memoization)") {
    val shared = table("df").filter(col("b") > lit(0))
    val grouped = shared.groupby("a").agg(AggSpec("s", "sum", col("b"))).rename("a" -> "ga")
    val p = lower(shared.mergeOn(grouped, Seq("a"), Seq("ga")))
    assert(p.rules.count(r => r.relAtoms.exists(_.rel == "df")) == 1)
  }

  test("ANF: every operation becomes exactly one rule with fresh variables") {
    val d = table("df").filter(col("b") > lit(1)).select("a", "b")
      .groupby("a").agg(AggSpec("s", "sum", col("b")))
    val p = lower(d)
    assert(p.rules.size == 3)
    // relation-access renaming: no variable name is bound in two rules
    val bound = p.rules.flatMap(_.relAtoms.flatMap(_.vars))
    assert(bound.distinct.size == bound.size)
  }

  test("unknown column fails loudly at lowering time") {
    intercept[RuntimeException] { lower(table("df").filter(col("nope") > lit(1))) }
  }

  test("select and unique of an unknown column fail when the program is built, naming the column") {
    for (build <- Seq(() => table("df").select("a", "nope"), () => table("df").unique("nope"))) {
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains("'nope'"), e.getMessage)
    }
  }
}
