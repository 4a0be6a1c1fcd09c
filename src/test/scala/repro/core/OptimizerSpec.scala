package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.language.implicitConversions
import TondIR._

/** Unit tests for each optimizer pass, using the paper's own §IV examples. */
class OptimizerSpec extends AnyFunSuite {

  private val cat = Catalog.empty
    .withTable("R", Vector("a", "b", "c", "d"), unique = Set("a"))
    .withTable("S", Vector("id", "x", "y"), unique = Set("id"))
    .withTable("R4", Vector("e", "f", "g"))

  private def v(n: String) = TVar(n)

  // ---------------------------------------------------------- local DCE
  test("local DCE removes assignments not used by the head or other atoms") {
    // R1(a, s) :- R(a,b,c,d), (s=sum(b)), (t=c*d).   — t is dead
    val rule = Rule(
      Head("R1", Vector("a" -> v("a"), "s" -> v("s")), group = Vector("a")),
      Vector(RelAtom("R", Vector("a", "b", "c", "d")),
             AssignAtom("s", TAgg("sum", v("b"))),
             AssignAtom("t", TBin("*", v("c"), v("d")))))
    val out = Optimizer.localDce(rule)
    assert(out.assigns.map(_.v) == Vector("s"))
  }

  test("local DCE keeps assignments referenced by other assignments") {
    val rule = Rule(
      Head("R1", Vector("s" -> v("s"))),
      Vector(RelAtom("R", Vector("a", "b", "c", "d")),
             AssignAtom("t", TBin("*", v("c"), v("d"))),
             AssignAtom("s", TBin("+", v("t"), v("a")))))
    assert(Optimizer.localDce(rule).assigns.map(_.v).toSet == Set("s", "t"))
  }

  test("local DCE removes a chain of three dead assignments in one call") {
    // R1(a) :- R(a,b,c,d), (x=b), (y=x+c), (z=y*d).   — z, then y, then x die
    val rule = Rule(Head("R1", Vector("a" -> v("a"))),
      Vector(RelAtom("R", Vector("a", "b", "c", "d")),
             AssignAtom("x", v("b")),
             AssignAtom("y", TBin("+", v("x"), v("c"))),
             AssignAtom("z", TBin("*", v("y"), v("d")))))
    assert(Optimizer.localDce(rule).body == Vector(RelAtom("R", Vector("a", "b", "c", "d"))))
  }

  test("local DCE keeps or removes all assignments to one var together") {
    val body = Vector(RelAtom("R", Vector("a", "b", "c", "d")), AssignAtom("s", v("b")), AssignAtom("s", v("c")))
    val kept = Rule(Head("R1", Vector("s" -> v("s"))), body)
    assert(Optimizer.localDce(kept) eq kept)
    assert(Optimizer.localDce(Rule(Head("R1", Vector("a" -> v("a"))), body)).assigns.isEmpty)
  }

  test("local DCE keeps an assignment used only inside an exists body") {
    val rule = Rule(Head("R1", Vector("a" -> v("a"))),
      Vector(RelAtom("R", Vector("a", "b", "c", "d")),
             AssignAtom("t", TBin("*", v("b"), TConst(2L))),
             ExistsAtom(Vector(RelAtom("S", Vector("id", "x", "y")), PredAtom(TBin(">", v("x"), v("t")))))))
    assert(Optimizer.localDce(rule) eq rule)
  }

  // --------------------------------------------------------- global DCE
  test("global DCE prunes head columns unused downstream (paper §IV example)") {
    // R1(a,b,c,d) :- R(a,b,c,d), (a<10), (c=d).
    // R2(a,s) group(a) :- R1(a,b,c,d), (s=sum(b)).
    val r1 = Rule(
      Head("R1", Vector("a" -> v("a"), "b" -> v("b"), "c" -> v("c"), "d" -> v("d"))),
      Vector(RelAtom("R", Vector("a", "b", "c", "d")),
             PredAtom(TBin("<", v("a"), TConst(10L))),
             PredAtom(TBin("=", v("c"), v("d")))))
    val r2 = Rule(
      Head("R2", Vector("a" -> v("a2"), "s" -> v("s")), group = Vector("a2")),
      Vector(RelAtom("R1", Vector("a2", "b2", "c2", "d2")),
             AssignAtom("s", TAgg("sum", v("b2")))))
    val out = Optimizer.globalDce(Program(Vector(r1, r2), "R2"))
    val h1 = out.rules.head.head
    assert(h1.colNames == Vector("a", "b"), TondIR.show(out))
    // consumer's positional binding must shrink accordingly
    assert(out.rules(1).relAtoms.head.vars.size == 2)
  }

  test("global DCE drops rules no longer reachable from the result") {
    val r1 = Rule(Head("Dead", Vector("a" -> v("a"))), Vector(RelAtom("R", Vector("a", "b", "c", "d"))))
    val r2 = Rule(Head("Live", Vector("a" -> v("x"))), Vector(RelAtom("R", Vector("x", "y", "z", "w"))))
    val out = Optimizer.globalDce(Program(Vector(r1, r2), "Live"))
    assert(out.rules.map(_.head.rel) == Vector("Live"))
  }

  test("global DCE keeps a producer position whose var joins two of the consumer's relation atoms") {
    // P(a,b,c) :- R(a,b,c,d).   Q(x) :- P(j,y,z), S(j,x,w).   — j joins, y and z are unused
    val p = Program(Vector(
      Rule(Head("P", Vector("a" -> v("a"), "b" -> v("b"), "c" -> v("c"))), Vector(RelAtom("R", Vector("a", "b", "c", "d")))),
      Rule(Head("Q", Vector("x" -> v("x"))), Vector(RelAtom("P", Vector("j", "y", "z")), RelAtom("S", Vector("j", "x", "w"))))), "Q")
    val out = Optimizer.globalDce(p)
    assert(out.rules.head.head.colNames == Vector("a"), TondIR.show(out))
    assert(out.rules(1).relAtoms.head == RelAtom("P", Vector("j")))
  }

  test("global DCE keeps a producer position whose only join is with a VALUES atom") {
    // P(a,b,c) :- R(a,b,c,d).   Q(x) :- P(x,s,z), <s>=[("a")].   — s joins, z is unused
    val p = Program(Vector(
      Rule(Head("P", Vector("a" -> v("a"), "b" -> v("b"), "c" -> v("c"))), Vector(RelAtom("R", Vector("a", "b", "c", "d")))),
      Rule(Head("Q", Vector("x" -> v("x"))),
           Vector(RelAtom("P", Vector("x", "s", "z")), ConstAtom(Vector("s"), Vector(Vector(TConst("a"))))))), "Q")
    val out = Optimizer.globalDce(p)
    assert(out.rules.head.head.colNames == Vector("a", "b"), TondIR.show(out))
    assert(out.rules(1).relAtoms.head == RelAtom("P", Vector("x", "s")))
  }

  test("global DCE keeps every column of a producer none of whose columns are read") {
    // P(a,b) :- R(a,b,c,d).   Q(x) :- S(id,x,y), exists(P(p1,p2)).
    val p = Program(Vector(
      Rule(Head("P", Vector("a" -> v("a"), "b" -> v("b"))), Vector(RelAtom("R", Vector("a", "b", "c", "d")))),
      Rule(Head("Q", Vector("x" -> v("x"))),
           Vector(RelAtom("S", Vector("id", "x", "y")), ExistsAtom(Vector(RelAtom("P", Vector("p1", "p2"))))))), "Q")
    val out = Optimizer.globalDce(p)
    assert(out == p && (out.rules.head eq p.rules.head), TondIR.show(out))
  }

  // ---------------------------------------- group-aggregate elimination
  test("group-aggregate elimination on a unique key (paper §IV example)") {
    // R1(id, s) group(id) :- S(id, x, y), (s=sum(x)).  — id is S's PK
    val r = Rule(
      Head("R1", Vector("id" -> v("id"), "s" -> v("s")), group = Vector("id")),
      Vector(RelAtom("S", Vector("id", "x", "y")), AssignAtom("s", TAgg("sum", v("x")))))
    val out = Optimizer.groupAggElim(Program(Vector(r), "R1"), cat)
    val o = out.rules.head
    assert(o.head.group.isEmpty)
    assert(o.assigns.head.t == v("x"))       // sum(x) unwrapped to x
  }

  test("group-aggregate elimination unwraps count(*) to 1") {
    val r = Rule(
      Head("R1", Vector("id" -> v("id"), "n" -> v("n")), group = Vector("id")),
      Vector(RelAtom("S", Vector("id", "x", "y")), AssignAtom("n", TAgg("count", TConst(1L)))))
    val out = Optimizer.groupAggElim(Program(Vector(r), "R1"), cat)
    assert(out.rules.head.assigns.head.t == TConst(1L))
  }

  test("group-aggregate elimination leaves non-unique groupings alone") {
    val r = Rule(
      Head("R1", Vector("x" -> v("x"), "s" -> v("s")), group = Vector("x")),
      Vector(RelAtom("S", Vector("id", "x", "y")), AssignAtom("s", TAgg("sum", v("y")))))
    val out = Optimizer.groupAggElim(Program(Vector(r), "R1"), cat)
    assert(out.rules.head.head.group == Vector("x"))
  }

  test("group-aggregate elimination keeps a grouping whose body repeats rows through VALUES") {
    // P(a, z) :- R(a,b,c,d), <z>=rows.   Q(a, n) group(a2) :- P(a2, z2), (n=count(1)).
    def prog(rows: Int) = {
      val values = ConstAtom(Vector("z"), Vector.tabulate(rows)(i => Vector(TConst(i.toLong))))
      val count = AssignAtom("n", TAgg("count", TConst(1L)))
      Program(Vector(
        Rule(Head("P", Vector("a" -> v("a"), "z" -> v("z"))), Vector(RelAtom("R", Vector("a", "b", "c", "d")), values)),
        Rule(Head("Q", Vector("a" -> v("a2"), "n" -> v("n")), group = Vector("a2")),
             Vector(RelAtom("P", Vector("a2", "z2")), count)),
        // the same, with the VALUES atom in the grouping rule's own body (as after inlining)
        Rule(Head("Q2", Vector("a" -> v("a3"), "n" -> v("n")), group = Vector("a3")),
             Vector(RelAtom("R", Vector("a3", "b3", "c3", "d3")), values, count))), "Q2")
    }
    val two = Optimizer.groupAggElim(prog(2), cat)
    assert(two.rules.map(_.head.group) == Vector(Vector(), Vector("a2"), Vector("a3")), TondIR.show(two))
    val one = Optimizer.groupAggElim(prog(1), cat)
    assert(one.rules.map(_.head.group) == Vector(Vector(), Vector(), Vector()), TondIR.show(one))
  }

  // ------------------------------------------------ self-join elimination
  test("self-join elimination on a unique join column (paper §IV example)") {
    // T(x, y) :- S(id, x, y1), S(id, x2, y).
    val r = Rule(
      Head("T", Vector("x" -> v("x"), "y" -> v("y"))),
      Vector(RelAtom("S", Vector("id", "x", "y1")), RelAtom("S", Vector("id", "x2", "y"))))
    val out = Optimizer.selfJoinElim(Program(Vector(r), "T"), cat)
    val o = out.rules.head
    assert(o.relAtoms.size == 1, TondIR.show(out))
    assert(o.head.cols == Vector("x" -> v("x"), "y" -> v("y1")))
  }

  test("self-join on a non-unique column is kept") {
    val r = Rule(
      Head("T", Vector("a" -> v("x"))),
      Vector(RelAtom("S", Vector("i1", "x", "y")), RelAtom("S", Vector("i2", "x", "y2"))))
    val out = Optimizer.selfJoinElim(Program(Vector(r), "T"), cat)
    assert(out.rules.head.relAtoms.size == 2)
  }

  // ------------------------------------------------------- rule inlining
  test("rule inlining fuses a filter chain into the aggregate (paper §IV example)") {
    // R2(b,c,d) :- R1(a,b,c,d), (a>1000).
    // R3(b,d)   :- R2(b,c,d), (c<>"A").
    // R5(e,g)   :- R4(e,f,g), (f>100).
    // R6(b,g)   :- R3(b,x), R5(x,g).
    // R7(b,m) group(b) :- R6(b,g), (m=max(g)).
    implicit def s2t(s: String): TVar = v(s)
    val rules = Vector(
      Rule(Head("R2", Vector("b" -> v("b"), "c" -> v("c"), "d" -> v("d"))),
           Vector(RelAtom("R", Vector("a", "b", "c", "d")), PredAtom(TBin(">", v("a"), TConst(1000L))))),
      Rule(Head("R3", Vector("b" -> v("b2"), "d" -> v("d2"))),
           Vector(RelAtom("R2", Vector("b2", "c2", "d2")), PredAtom(TBin("<>", v("c2"), TConst("A"))))),
      Rule(Head("R5", Vector("e" -> v("e"), "g" -> v("g"))),
           Vector(RelAtom("R4", Vector("e", "f", "g")), PredAtom(TBin(">", v("f"), TConst(100L))))),
      Rule(Head("R6", Vector("b" -> v("b3"), "g" -> v("g3"))),
           Vector(RelAtom("R3", Vector("b3", "x3")), RelAtom("R5", Vector("x3", "g3")))),
      Rule(Head("R7", Vector("b" -> v("b4"), "m" -> v("m")), group = Vector("b4")),
           Vector(RelAtom("R6", Vector("b4", "g4")), AssignAtom("m", TAgg("max", v("g4"))))))
    val out = Optimizer.inlineRules(Program(rules, "R7"))
    assert(out.rules.size == 1, TondIR.show(out))
    val fused = out.rules.head
    assert(fused.relAtoms.map(_.rel).sorted == Vector("R", "R4"))
    assert(fused.body.count(_.isInstanceOf[PredAtom]) == 3)
    assert(fused.head.group.nonEmpty)
  }

  test("flow breakers are not inlined (Table VII)") {
    val agg = Rule(Head("A", Vector("s" -> v("s"))),
      Vector(RelAtom("S", Vector("id", "x", "y")), AssignAtom("s", TAgg("sum", v("x")))))
    val sorted = Rule(Head("B", Vector("x" -> v("x1")), sort = Vector(("x", true)), limit = Some(5)),
      Vector(RelAtom("S", Vector("i1", "x1", "y1"))))
    val dist = Rule(Head("C", Vector("x" -> v("x2")), distinct = true),
      Vector(RelAtom("S", Vector("i2", "x2", "y2"))))
    val sink = Rule(Head("D", Vector("a" -> v("a"), "b" -> v("b"), "c" -> v("c"))),
      Vector(RelAtom("A", Vector("a")), RelAtom("B", Vector("b")), RelAtom("C", Vector("c"))))
    val p = Program(Vector(agg, sorted, dist, sink), "D")
    assert(Optimizer.inlineRules(p).rules.size == 4)
    assert(Optimizer.isFlowBreaker(agg, p))
    assert(Optimizer.isFlowBreaker(sorted, p))
    assert(Optimizer.isFlowBreaker(dist, p))
    assert(Optimizer.isFlowBreaker(sink, p))
  }

  test("outer-join producers are never spliced behind the join") {
    val filt = Rule(Head("F", Vector("id" -> v("i"), "x" -> v("xx"))),
      Vector(RelAtom("S", Vector("i", "xx", "yy")), PredAtom(TBin(">", v("xx"), TConst(0L)))))
    val lj = Rule(Head("L", Vector("a" -> v("a"), "x" -> v("fx"))),
      Vector(RelAtom("R", Vector("a", "b", "c", "d")),
             RelAtom("F", Vector("fid", "fx"), Some(("left", TBin("=", v("a"), v("fid")))))))
    val out = Optimizer.inlineRules(Program(Vector(filt, lj), "L"))
    assert(out.rules.size == 2)
  }

  test("rule inlining splices a three-rule chain and keeps the outer-joined relation") {
    // A(a,b) :- R(a,b,c,d), (a>1).   B(a,b) :- A(a2,b2), (b2<5).
    // F(id,x) :- S(id,x,y), (x>0).   C(a,x) :- B(a3,b3), outer_left[F(fid,x3) on a3 = fid].
    val rules = Vector(
      Rule(Head("A", Vector("a" -> v("a"), "b" -> v("b"))),
           Vector(RelAtom("R", Vector("a", "b", "c", "d")), PredAtom(TBin(">", v("a"), TConst(1L))))),
      Rule(Head("B", Vector("a" -> v("a2"), "b" -> v("b2"))),
           Vector(RelAtom("A", Vector("a2", "b2")), PredAtom(TBin("<", v("b2"), TConst(5L))))),
      Rule(Head("F", Vector("id" -> v("i"), "x" -> v("xx"))),
           Vector(RelAtom("S", Vector("i", "xx", "yy")), PredAtom(TBin(">", v("xx"), TConst(0L))))),
      Rule(Head("C", Vector("a" -> v("a3"), "x" -> v("x3"))),
           Vector(RelAtom("B", Vector("a3", "b3")),
                  RelAtom("F", Vector("fid", "x3"), Some(("left", TBin("=", v("a3"), v("fid"))))))))
    val out = Optimizer.inlineRules(Program(rules, "C"))
    assert(out.rules.map(_.head.rel) == Vector("F", "C"), TondIR.show(out))
    assert(out.rules(0) eq rules(2))
    assert(show(out.rules(1)) ==
      "C(a=a3, x=x3) :- R(a3, b3, c_1_3, d_2_4), ((a3 > 1)), ((b3 < 5)), outer_left[F(fid, x3) on (a3 = fid)].")
    assert(IrCheck.violations(out, cat).isEmpty)
  }

  test("optimization levels compose monotonically (rule count never grows)") {
    val rules = Vector(
      Rule(Head("P1", Vector("a" -> v("a"), "b" -> v("b"))),
           Vector(RelAtom("R", Vector("a", "b", "c", "d")), PredAtom(TBin("<", v("a"), TConst(5L))))),
      Rule(Head("P2", Vector("a" -> v("a1"), "s" -> v("s")), group = Vector("a1")),
           Vector(RelAtom("P1", Vector("a1", "b1")), AssignAtom("s", TAgg("sum", v("b1"))))))
    val p = Program(rules, "P2")
    val sizes = (0 to 4).map(l => Optimizer.optimize(p, cat, l).rules.size)
    assert(sizes.zip(sizes.tail).forall { case (x, y) => y <= x })
  }

  test("a fixpoint that never converges fails loudly with the pass and last program") {
    val p = Program(Vector(Rule(Head("P", Vector("a" -> v("a"))), Vector(RelAtom("R", Vector("a", "b", "c", "d"))))), "P")
    // Each step adds a (redundant) predicate, so the program never repeats.
    val e = intercept[RuntimeException] {
      Optimizer.fix(p, "grow")(q => q.copy(rules = q.rules.map(r =>
        r.copy(body = r.body :+ PredAtom(TBin("<", v("a"), TConst(r.body.size.toLong)))))))
    }
    assert(e.getMessage.contains("pass grow did not converge"), e.getMessage)
    assert(e.getMessage.contains("P(a) :- R(a, b, c, d), ((a < 1)),") && e.getMessage.contains("((a < 10))."), e.getMessage)
  }
}
