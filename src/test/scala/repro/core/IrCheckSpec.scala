package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Prog, TestData}
import TondIR._

/** Every workload program is well formed (see [[IrCheck]]) after lowering
  * and after every pass of every step of each optimizer level's fixpoint,
  * and each level's output is a fixpoint of that level's step. The passes
  * are replayed one at a time and checked against `Optimizer.step`, so the
  * replay cannot drift from the optimizer. The replay stacks the levels,
  * each starting from the one below, while `Optimizer.optimize` runs each of
  * O1..O3 from the lowered program; comparing the two at every level checks
  * that stacking the levels reaches the same programs. */
class IrCheckSpec extends AnyFunSuite {

  /** The passes of one step, in `Optimizer.step`'s order, with the lowest
    * level that runs each. */
  private def passes(cat: Catalog): Vector[(Int, String, Program => Program)] = Vector(
    (3, "selfJoinElim", Optimizer.selfJoinElim(_, cat)),
    (2, "groupAggElim", Optimizer.groupAggElim(_, cat)),
    (1, "localDce", Optimizer.localDce(_: Program)),
    (1, "globalDce", Optimizer.globalDce))

  for (prog @ Prog(name, cat, _, _) <- TestData.programs)
    test(s"$name: well formed after Lower and O1–O4, each level a fixpoint of its step") {
      def check(p: Program, where: String): Unit = {
        val bad = IrCheck.violations(p, cat)
        assert(bad.isEmpty, s"$where: ${bad.mkString("; ")}\n${show(p)}")
      }
      val ir = prog.compile(0)
      check(ir, "after Lower")
      var prev = ir
      for (level <- 1 to 4) {
        val levelPasses = passes(cat).filter(_._1 <= level)
        var cur = prev
        if (level == 4) { cur = Optimizer.inlineRules(cur); check(cur, "O4 before step 1, after inlineRules") }
        var step = 0
        var done = false
        while (!done) {
          step += 1
          assert(step <= 10, s"O$level did not converge in 10 steps")
          val next = levelPasses.foldLeft(cur) { case (q, (_, pass, run)) =>
            val out = run(q)
            check(out, s"O$level step $step, after $pass")
            out
          }
          assert(next == Optimizer.step(level, cat)(cur), s"O$level step $step: the replayed passes differ from Optimizer.step")
          done = next == cur
          cur = next
        }
        assert(cur == Optimizer.optimize(ir, cat, level), s"O$level: the replayed fixpoint differs from Optimizer.optimize")
        prev = cur
      }
    }

  test("the checker reports each kind of violation") {
    val cat = Catalog.empty.withTable("t", Vector("k", "x"))
    def one(head: Head, body: Atom*) = IrCheck.violations(Program(Vector(Rule(head, body.toVector)), head.rel), cat)
    val t = RelAtom("t", Vector("k", "x"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t).isEmpty)
    assert(one(Head("r", Vector("k" -> TVar("z"))), t) == Vector("r: z is referenced but not bound"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, ExistsAtom(Vector(RelAtom("t", Vector("j", "y")), PredAtom(TBin(">", TVar("w"), TVar("x"))))))
      == Vector("r: w is referenced but not bound"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), RelAtom("t", Vector("k"))) ==
      Vector("r: t has arity 2 but is accessed with 1 vars"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), RelAtom("r0", Vector("k"))) ==
      Vector("r: r0 is neither an earlier rule nor in the catalog"))
    assert(one(Head("r", Vector("k" -> TVar("k")), sort = Vector(("x", true))), t) ==
      Vector("r: sort key x is not a head column"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, AssignAtom("x", TConst(1L))) ==
      Vector("r: x is both assigned and bound by a relation atom"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, ExistsAtom(Vector(RelAtom("t", Vector("j", "y")), AssignAtom("k", TConst(1L))))) ==
      Vector("r: k is both assigned and bound by a relation atom"))
    assert(one(Head("r", Vector("k" -> TConst(1L)))) == Vector("r: body level has no relation or VALUES atom: "))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, ExistsAtom(Vector(PredAtom(TBin(">", TVar("x"), TConst(1L)))))) ==
      Vector("r: body level has no relation or VALUES atom: ((x > 1))"))
  }
}
