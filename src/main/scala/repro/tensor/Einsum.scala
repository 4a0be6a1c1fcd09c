package repro.tensor

import repro.core.TondIR._

/** Einsum → TondIR translation (§III-D, Table VI).
  *
  * '''Dense layout''': tensors are relations `(id, c0..c{n-1})` with a
  * 0-based unique `id`; a vector is an `n×1` matrix; a scalar is a one-row
  * relation `(c0)`. A tensor's shape is the head of the rule that derives
  * it. [[lowerDense]] lowers each supported spec straight to its kernel
  * rules: total, row and column sums, the diagonal, scalar, Hadamard and dot
  * products, the batch outer product (ES8), and the matrix product, whose
  * right operand is broadcast into one wide row by conditional sums. Wide
  * one-row results are reshaped back to `(id, c0..)` form with an inline
  * VALUES index and if-chains — the Fig. 2 pattern. [[plan]] is the
  * symbolic Table VI reduction of a spec to kernel names; tests check it
  * against the paper's `'ab,cc->ba'` walk-through, and lowering does not
  * call it.
  *
  * '''Sparse (COO) layout''': tensors are `(i, j, v)` / `(i, v)` relations;
  * any n-ary einsum is translated generically à la Blacher et al.: join the
  * operands on shared index variables, group by the output indices, sum the
  * product of values.
  */
object Einsum {

  final case class Spec(inputs: Vector[String], output: String)

  def parse(spec: String): Spec = {
    val Array(lhs, rhs) = spec.split("->", -1)
    Spec(lhs.split(",", -1).toVector, rhs)
  }

  /** Dense operand: relation name + number of value columns (0 ⇒ scalar). */
  final case class DenseOp(rel: String, nCols: Int)

  // ==================================================================== plan
  /** Symbolic kernel planning: reduce a binary/unary einsum over order ≤ 2
    * tensors to a chain of fundamental-kernel applications (Table VI names,
    * plus the operand `swap` step from §III-D). */
  def plan(spec: String): Vector[String] = {
    val s = normalize(spec)
    s match {
      case "i->"                 => Vector("ES1")
      case "ij->i"               => Vector("ES2")
      case "ij->j"               => Vector("ES2T")          // column sums (reshape of ES2 on the transpose)
      case "ii->i"               => Vector("ES3")
      case "ii->"                => Vector("ES3", "ES1")
      case "ij->ji"              => Vector("ES4")
      case "ij->"                => Vector("ES2", "ES1")
      case ",->"                 => Vector("ES5")
      case ",ij->ij" | "ij,->ij" => Vector("ES6")
      case "ij,ij->ij"           => Vector("ES7")
      case "ij,ik->jk"           => Vector("ES8")
      case "ij,ik->ij"           => Vector("ES9")
      case "i,i->"               => Vector("ES8")           // 1-col instance of batch outer + scalar reshape
      case "i,j->ij"             => Vector("ES8T")          // outer product: ES8 with degenerate batch — via broadcast
      case "ij,j->i"             => Vector("BCAST", "ES9")  // matrix–vector: broadcast vector row, row-wise dot
      case "ij,jk->ik"           => Vector("BCAST", "MM")   // matmul: broadcast right operand, row-wise dots
      case "ij,kk->ji" =>
        // The paper's worked example ('ab,cc->ba'): diagonalize, total the
        // right operand to a scalar, swap operands, transpose, then ES6.
        Vector("ES3", "ES1", "swap", "ES4", "ES6")
      case other => sys.error(s"einsum planner: unsupported dense spec '$other'")
    }
  }

  /** Rename indices so the first/second/third non-repeated characters become
    * i/j/k (§III-D). */
  def normalize(spec: String): String = {
    val order = scala.collection.mutable.LinkedHashMap[Char, Char]()
    val names = "ijklmn"
    spec.foreach { c => if (c.isLetter && !order.contains(c)) order(c) = names(order.size) }
    spec.map(c => if (c.isLetter) order(c) else c)
  }

  // ============================================================= dense lower
  /** Lower a dense einsum over the given operands. `ng` supplies fresh
    * variable/relation names; the last rule derives the result, and its head
    * is the result's shape: `(c0)` for a scalar, `(id, c0..)` otherwise. */
  def lowerDense(spec: String, ops: Vector[DenseOp], ng: NameGen): Program = {
    val rules = normalize(spec) match {
      case "i->" | "ij->"          => totalSum(ops(0), ng)
      case "ij->i"                 => rowSum(ops(0), ng)
      case "ij->j"                 => colSums(ops(0), ng)
      case "ii->i"                 => diagonal(ops(0), ng)
      case "ii->"                  => { val d = diagonal(ops(0), ng); d ++ totalSum(DenseOp(d.last.head.rel, 1), ng) }
      case ",->"                   => scalarMul(ops(0), ops(1), ng)
      case ",ij->ij"               => scalarTimesMatrix(ops(0), ops(1), ng)
      case "ij,->ij"               => scalarTimesMatrix(ops(1), ops(0), ng)
      case "ij,ij->ij" | "i,i->i"  => hadamard(ops(0), ops(1), ng)
      case "ij,ik->jk"             => batchOuter(ops(0), ops(1), ng)
      case "i,i->" | "ij,ij->"     => dot(ops(0), ops(1), ng)
      case "ij,j->i" | "ij,jk->ik" => matMul(ops(0), ops(1), ng)
      case other                   => sys.error(s"einsum dense lowering: unsupported '$other'")
    }
    Program(rules, rules.last.head.rel)
  }

  private def vars(ng: NameGen, n: Int, stem: String): Vector[String] =
    Vector.tabulate(n)(i => ng.fresh(s"$stem$i"))

  private def matAtom(op: DenseOp, ng: NameGen, stem: String): (RelAtom, String, Vector[String]) = {
    val id = ng.fresh(s"${stem}id")
    val cs = vars(ng, op.nCols, stem)
    (RelAtom(op.rel, id +: cs), id, cs)
  }

  /** Both operands joined on `id`: the two atoms, the id and each side's
    * value variables. */
  private def joinOnId(a: DenseOp, b: DenseOp, ng: NameGen): (Vector[Atom], String, Vector[String], Vector[String]) = {
    val id = ng.fresh("id")
    val as = vars(ng, a.nCols, "a"); val bs = vars(ng, b.nCols, "b")
    (Vector(RelAtom(a.rel, id +: as), RelAtom(b.rel, id +: bs)), id, as, bs)
  }

  private def times(x: String, y: String): Term = TBin("*", TVar(x), TVar(y))
  private def sumOf(ts: Seq[Term]): Term = ts.reduce(TBin("+", _, _))

  /** `if(idx = i, c, …, 0.0)` over the (variable `c`, index `i`) cells —
    * the Table V if-chain. */
  private def ifChain(idx: String, cells: Seq[(String, Int)]): Term =
    cells.reverse.foldLeft(TConst(0.0): Term) { case (acc, (c, i)) =>
      TIf(TBin("=", TVar(idx), TConst(i.toLong)), TVar(c), acc) }

  /** The rule `rel(id, c0..)` with value column `k` computed by `cols(k)`. */
  private def matRule(rel: String, id: String, cols: Seq[Term], body: Vector[Atom]): Rule =
    Rule(Head(rel, ("id" -> (TVar(id): Term)) +: cols.zipWithIndex.map { case (t, k) => s"c$k" -> t }.toVector), body)

  /** The one-row rule `rel(c0..)` whose cell `k` is the variable of
    * `cells(k)`, assigned its aggregate over `atoms`. */
  private def cellsRule(rel: String, atoms: Vector[Atom], cells: Seq[(String, Term)]): Rule =
    Rule(Head(rel, cells.zipWithIndex.map { case ((v, _), k) => s"c$k" -> (TVar(v): Term) }.toVector),
         atoms ++ cells.map { case (v, t) => AssignAtom(v, t) })

  /** ES1 / 'ij->' — total sum into a scalar relation `(c0)`. */
  private def totalSum(op: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atom, _, cs) = matAtom(op, ng, "a")
    val s = ng.fresh("s")
    Vector(Rule(Head(ng.fresh("es1"), Vector("c0" -> TVar(s))),
                Vector(atom, AssignAtom(s, TAgg("sum", sumOf(cs.map(TVar(_))))))))
  }

  /** ES2 'ij->i' — row sums: no aggregation, pure per-row arithmetic. */
  private def rowSum(op: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atom, id, cs) = matAtom(op, ng, "a")
    val s = ng.fresh("s")
    Vector(matRule(ng.fresh("es2"), id, Vector(TVar(s)), Vector(atom, AssignAtom(s, sumOf(cs.map(TVar(_)))))))
  }

  /** 'ij->j' — column sums, reshaped from one wide row to an n×1 vector. */
  private def colSums(op: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atom, _, cs) = matAtom(op, ng, "a")
    val wide = ng.fresh("csw")
    Vector(cellsRule(wide, Vector(atom), cs.map(c => ng.fresh("s") -> TAgg("sum", TVar(c)))),
           reshape(wide, op.nCols, 1, ng))
  }

  /** ES3 'ii->i' — diagonal to column via the if-chain. */
  private def diagonal(op: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atom, id, cs) = matAtom(op, ng, "a")
    val d = ng.fresh("d")
    Vector(matRule(ng.fresh("es3"), id, Vector(TVar(d)), Vector(atom, AssignAtom(d, ifChain(id, cs.zipWithIndex)))))
  }

  /** ES5 ',->' — scalar product of two one-row relations. */
  private def scalarMul(a: DenseOp, b: DenseOp, ng: NameGen): Vector[Rule] = {
    val (x, y) = (ng.fresh("x"), ng.fresh("y"))
    Vector(Rule(Head(ng.fresh("es5"), Vector("c0" -> times(x, y))),
                Vector(RelAtom(a.rel, Vector(x)), RelAtom(b.rel, Vector(y)))))
  }

  /** ES6 ',ij->ij' — scalar times matrix (cross join with a one-row rel). */
  private def scalarTimesMatrix(s: DenseOp, m: DenseOp, ng: NameGen): Vector[Rule] = {
    val sv = ng.fresh("s")
    val (atom, id, cs) = matAtom(m, ng, "a")
    Vector(matRule(ng.fresh("es6"), id, cs.map(times(sv, _)), Vector(RelAtom(s.rel, Vector(sv)), atom)))
  }

  /** ES7 'ij,ij->ij' — Hadamard product (join on id). */
  private def hadamard(a: DenseOp, b: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atoms, id, as, bs) = joinOnId(a, b, ng)
    Vector(matRule(ng.fresh("es7"), id, as.zip(bs).map { case (x, y) => times(x, y) }, atoms))
  }

  /** 'i,i->' and 'ij,ij->' — elementwise products, totalled. */
  private def dot(a: DenseOp, b: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atoms, _, as, bs) = joinOnId(a, b, ng)
    val s = ng.fresh("s")
    Vector(Rule(Head(ng.fresh("dot"), Vector("c0" -> TVar(s))),
                atoms :+ AssignAtom(s, TAgg("sum", sumOf(as.zip(bs).map { case (x, y) => times(x, y) })))))
  }

  /** ES8 'ij,ik->jk' — batch vector outer product (e.g. covariance):
    * join on id, one scalar SUM per output cell, then reshape the wide
    * one-row result to an `n1×n2` matrix (the Fig. 2 pattern). */
  private def batchOuter(a: DenseOp, b: DenseOp, ng: NameGen): Vector[Rule] = {
    val (atoms, _, as, bs) = joinOnId(a, b, ng)
    val wide = ng.fresh("es8w")
    val cells = for (x <- as; y <- bs) yield ng.fresh("p") -> TAgg("sum", times(x, y))
    Vector(cellsRule(wide, atoms, cells), reshape(wide, a.nCols, b.nCols, ng))
  }

  /** 'ij,jk->ik', and 'ij,j->i' as its one-column case — the right operand
    * (`n` rows, statically the left operand's column count) is broadcast
    * into one wide row of conditional sums (`sum(if(id=j, c, 0))`, the pivot
    * pattern), cross joined, and dotted with each left row. */
  private def matMul(a: DenseOp, b: DenseOp, ng: NameGen): Vector[Rule] = {
    val (n, p) = (a.nCols, b.nCols)
    val id = ng.fresh("id"); val bcs = Vector.fill(p)(ng.fresh("c"))
    val cells = for (j <- 0 until n; c <- bcs) yield ng.fresh("v") -> TAgg("sum", ifChain(id, Seq(c -> j)))
    val row = ng.fresh("vrow")
    val (atom, aid, acs) = matAtom(a, ng, "a")
    val ws = vars(ng, n * p, "v")
    val dots = (0 until p).map(k => sumOf((0 until n).map(j => times(acs(j), ws(j * p + k)))))
    Vector(cellsRule(row, Vector(RelAtom(b.rel, id +: bcs)), cells),
           matRule(ng.fresh("mv"), aid, dots, Vector(atom, RelAtom(row, ws))))
  }

  /** Reshape a one-row `n1*n2`-column relation into an `n1×n2` matrix using
    * an inline VALUES index and one if-chain per column (Fig. 2's v4_2/v4_3
    * pattern). */
  private def reshape(wide: String, n1: Int, n2: Int, ng: NameGen): Rule = {
    val idx = ng.fresh("rid")
    val cs = vars(ng, n1 * n2, "w")
    matRule(ng.fresh("mat"), idx, (0 until n2).map(k => ifChain(idx, (0 until n1).map(j => cs(j * n2 + k) -> j))),
            Vector(RelAtom(wide, cs), ConstAtom(Vector(idx), Vector.tabulate(n1)(i => Vector(TConst(i.toLong))))))
  }

  // ============================================================ sparse (COO)
  /** COO operand: `(i, v)` for vectors, `(i, j, v)` for matrices. */
  final case class CooOp(rel: String, order: Int)

  /** Generic n-ary sparse einsum (Blacher et al.): join operands on shared
    * index variables, group by output indices, sum the product of values.
    * The result is `(i0.., v)`. */
  def lowerSparse(spec: String, ops: Vector[CooOp], ng: NameGen): Program = {
    val s = parse(spec)
    require(s.inputs.size == ops.size, "einsum: operand count mismatch")
    val idxVar = scala.collection.mutable.Map[Char, String]()
    def v(c: Char): String = idxVar.getOrElseUpdate(c, ng.fresh(s"i$c"))
    val atoms = s.inputs.zip(ops).map { case (ix, op) =>
      require(ix.length == op.order, s"einsum: '$ix' does not match order-${op.order} operand")
      val vv = ng.fresh("v")
      (RelAtom(op.rel, ix.map(v).toVector :+ vv), vv)
    }
    val prod = atoms.map(a => TVar(a._2): Term).reduce(TBin("*", _, _))
    val sVar = ng.fresh("s")
    val rel = ng.fresh("coo")
    val outIdx = s.output.map(v).toVector
    val idxCols = s.output.zipWithIndex.map { case (c, k) => s"i$k" -> (TVar(v(c)): Term) }.toVector
    val body = atoms.map(_._1) :+ AssignAtom(sVar, TAgg("sum", prod))
    val head = Head(rel, idxCols :+ ("v" -> (TVar(sVar): Term)), group = outIdx)
    Program(Vector(Rule(head, body.toVector)), rel)
  }
}
