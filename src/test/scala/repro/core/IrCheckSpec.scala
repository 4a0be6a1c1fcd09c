package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.frontend.Lower
import TondIR._

/** Every workload program is well formed (see [[IrCheck]]) after lowering
  * and after each optimizer level, and each level's output is a fixpoint of
  * that level's step. */
class IrCheckSpec extends AnyFunSuite {

  for ((name, cat, df) <- TestData.programs)
    test(s"$name: well formed after Lower and O1–O4, each level a fixpoint of its step") {
      val ir = Lower.lower(df, cat)
      assert(IrCheck.violations(ir, cat).isEmpty, s"after Lower:\n${show(ir)}")
      for (level <- 1 to 4) {
        val out = Optimizer.optimize(ir, cat, level)
        val bad = IrCheck.violations(out, cat)
        assert(bad.isEmpty, s"after O$level: ${bad.mkString("; ")}\n${show(out)}")
        assert(Optimizer.step(level, cat)(out) == out, s"one more O$level step changed:\n${show(out)}")
      }
    }

  test("the checker reports each kind of violation") {
    val cat = Catalog.empty.withTable("t", Vector("k", "x"))
    def one(head: Head, body: Atom*) = IrCheck.violations(Program(Vector(Rule(head, body.toVector)), head.rel), cat)
    val t = RelAtom("t", Vector("k", "x"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t).isEmpty)
    assert(one(Head("r", Vector("k" -> TVar("z"))), t) == Vector("r: z is referenced but not bound"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, ExistsAtom(Vector(PredAtom(TBin(">", TVar("w"), TVar("x"))))))
      == Vector("r: w is referenced but not bound"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), RelAtom("t", Vector("k"))) ==
      Vector("r: t has arity 2 but is accessed with 1 vars"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), RelAtom("r0", Vector("k"))) ==
      Vector("r: r0 is neither an earlier rule nor in the catalog"))
    assert(one(Head("r", Vector("k" -> TVar("k")), sort = Vector(("x", true))), t) ==
      Vector("r: sort key x is not a head column"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, AssignAtom("x", TConst(1L))) ==
      Vector("r: x is both assigned and bound by a relation atom"))
    assert(one(Head("r", Vector("k" -> TVar("k"))), t, ExistsAtom(Vector(AssignAtom("k", TConst(1L))))) ==
      Vector("r: k is both assigned and bound by a relation atom"))
  }
}
