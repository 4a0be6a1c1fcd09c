package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TondIR._

/** IR construction, traversal, renaming, and pretty-printing invariants. */
class TondIRSpec extends AnyFunSuite {

  private def v(n: String) = TVar(n)

  test("term vars collects variables at any depth") {
    val t = TIf(TBin("=", v("a"), TConst(1L)),
                TAgg("sum", TBin("*", v("b"), v("c"))),
                TExt("f", Seq(v("d"))))
    assert(t.vars == Set("a", "b", "c", "d"))
  }

  test("hasAgg sees aggregates under conditionals and binops") {
    assert(TBin("+", TConst(1L), TAgg("sum", v("x"))).hasAgg)
    assert(TIf(v("c"), TAgg("min", v("x")), TConst(0L)).hasAgg)
    assert(!TBin("+", v("x"), v("y")).hasAgg)
  }

  test("rename is total and leaves unmapped names intact") {
    val t = TBin("+", v("a"), v("b"))
    assert(t.rename(Map("a" -> "z").withDefault(identity)) == TBin("+", v("z"), v("b")))
  }

  test("an Int constant is held as a Long, so it equals the Long constant") {
    // show prints 1 for both types, so the IR digests cannot see this.
    assert(TConst(1).v.isInstanceOf[java.lang.Long])
    assert(TConst(1) == TConst(1L))
  }

  test("property: NameGen never repeats names") {
    val ng = new NameGen("x")
    val names = Vector.fill(500)(ng.fresh("v"))
    assert(names.distinct.size == names.size)
  }

  private def atomVars(a: Atom): Set[String] = { val b = Set.newBuilder[String]; a.foreachVar(b += _); b.result() }

  test("atom foreachVar reaches exists bodies and outer-join conditions") {
    val e = ExistsAtom(Vector(RelAtom("r", Vector("a", "b")), PredAtom(TBin(">", v("b"), v("c")))))
    assert(atomVars(e) == Set("a", "b", "c"))
    val o = RelAtom("r", Vector("x"), Some(("left", TBin("=", v("x"), v("y")))))
    assert(atomVars(o) == Set("x", "y"))
  }

  test("atom foreachVar visits every occurrence; rename reaches every depth") {
    val a = ExistsAtom(Vector(RelAtom("r", Vector("a", "a"), Some(("left", v("b")))), AssignAtom("c", v("a"))))
    val seen = Vector.newBuilder[String]
    a.foreachVar(seen += _)
    assert(seen.result() == Vector("a", "a", "b", "a", "c"))
    assert(atomVars(a.rename(_.toUpperCase)) == Set("A", "B", "C"))
  }

  // ------------------------------------------------------------------ scopes
  private val values = ConstAtom(Vector("s"), Vector(Vector(TConst("a"))))
  private def joinVars(s: Scope): Set[String] = { val b = Set.newBuilder[String]; s.foreachJoinVar(b += _); b.result() }

  test("scope: two atoms binding one variable at one level make it a join variable") {
    val s = new Scope(Vector(RelAtom("r", Vector("k", "x")), RelAtom("u", Vector("k", "y")), AssignAtom("z", v("x"))))
    assert(s.binds == Map("k" -> 2, "x" -> 1, "y" -> 1))
    assert(s.isJoinVar("k") && !s.isJoinVar("x") && !s.isJoinVar("z"))
    assert(joinVars(s) == Set("k"))
    assert(s.assignOf == Map("z" -> v("x")))
  }

  test("scope: a variable bound inside an exists body and outside it is a join variable") {
    val e = ExistsAtom(Vector(RelAtom("u", Vector("k", "y"))))
    val s = new Scope(Vector(RelAtom("r", Vector("k", "x")), e))
    assert(s.sub(e).isJoinVar("k") && !s.sub(e).isJoinVar("y"))
    assert(s.sub(e).sees("x") && s.sub(e).bindsRel("x") && !s.sees("y"))
  }

  test("scope: sibling exists bodies sharing a name that no enclosing level binds do not join on it") {
    val e1 = ExistsAtom(Vector(RelAtom("u", Vector("k", "y"))))
    val e2 = ExistsAtom(Vector(RelAtom("u", Vector("j", "y"))))
    val s = new Scope(Vector(RelAtom("r", Vector("k", "x")), e1, e2))
    assert(!s.sub(e1).isJoinVar("y") && !s.sub(e2).isJoinVar("y"))
    assert(joinVars(s).isEmpty && joinVars(s.sub(e2)).isEmpty && joinVars(s.sub(e1)) == Set("k"))
  }

  test("scope: a VALUES atom binds its variables") {
    val s = new Scope(Vector(RelAtom("P", Vector("k", "s")), values))
    assert(s.binds == Map("k" -> 1, "s" -> 2))
    assert(s.isJoinVar("s") && s.sees("s") && s.bindsRel("s"))
  }

  test("scope: an assignment at an enclosing level makes an inner binding a join variable") {
    val e = ExistsAtom(Vector(RelAtom("u", Vector("z", "y"))))
    val s = new Scope(Vector(RelAtom("r", Vector("k", "x")), AssignAtom("z", v("x")), e))
    assert(s.sub(e).isJoinVar("z") && !s.sub(e).isJoinVar("y"))
    assert(s.sees("z") && !s.bindsRel("z") && !s.isJoinVar("z"))
  }

  test("show produces readable Datalog-ish text") {
    val r = Rule(
      Head("R1", Vector("a" -> v("a"), "s" -> v("s")), group = Vector("a"),
           sort = Vector(("s", false)), limit = Some(10)),
      Vector(RelAtom("R", Vector("a", "b")), AssignAtom("s", TAgg("sum", v("b")))))
    val txt = TondIR.show(r)
    assert(txt.contains("R1(a, s)"))
    assert(txt.contains("group(a)"))
    assert(txt.contains("sort(-s)"))
    assert(txt.contains("limit(10)"))
    assert(txt.contains("(s = sum(b))"))
  }
}
