package repro.tensor

import repro.core.TondIR._

/** Einsum → TondIR translation (§III-D, Table VI).
  *
  * '''Dense layout''': tensors are relations `(id, c0..c{n-1})` with a
  * 0-based unique `id`; a vector is an `n×1` matrix; a scalar is a one-row
  * relation `(c0)`. A tensor's shape is the head of the rule that derives
  * it. [[extents]] holds NumPy's shape rules; lowering and the MiniPandas
  * baseline both call it. [[lowerDense]]'s match is the one list of specs
  * that lower, each straight to its kernel rules: `'i->'`, `'ij->'`,
  * `'ij->i'`, `'ij->j'`, `'ii->i'`, `'ii->'`, `',->'`, `',ij->ij'`,
  * `'ij,->ij'`, `'ij,ij->ij'`, `'i,i->i'`, `'i,i->'`, `'ij,ij->'`, the
  * batch outer product `'ij,ik->jk'` (ES8), and the matrix products
  * `'ij,jk->ik'` and `'ij,j->i'`, whose right operand is broadcast into one
  * wide row by conditional sums. Wide one-row results are reshaped back to
  * `(id, c0..)` form with an inline VALUES index and if-chains — the Fig. 2
  * pattern. Lowering sees column counts only, so row counts that break
  * NumPy's rules go unchecked (a deviation, DESIGN.md): a non-square `'ii'`
  * reads 0.0 past the last column, and a matrix product reads the right
  * operand's rows `0..n-1` for the left operand's `n` columns.
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

  /** NumPy's shape rules for `s` over dense operands, each given as
    * `(rows, nCols)`: `nCols` is 0 for a one-row `(c0)` scalar, 1 for an
    * `n×1` vector and more for a matrix, and `rows` is `None` where the
    * caller cannot know it. There must be one operand per input, and each
    * input names as many indices as its operand's order (0, 1 or 2); an
    * output index may not repeat and must appear in some input; all known
    * extents of one index must agree. Returns each index's known extent. */
  def extents(s: Spec, shapes: Vector[(Option[Int], Int)]): Map[Char, Int] = {
    def fail(msg: String): Nothing =
      throw new IllegalArgumentException(s"einsum '${s.inputs.mkString(",")}->${s.output}': $msg")
    if (s.inputs.size != shapes.size) fail(s"${s.inputs.size} inputs but ${shapes.size} operands")
    if (s.output.distinct != s.output) fail("an output index repeats")
    s.output.find(c => !s.inputs.exists(_.contains(c))).foreach(c => fail(s"output index '$c' is in no input"))
    val known = s.inputs.zip(shapes).flatMap { case (ix, (rows, nCols)) =>
      val dims = nCols match { case 0 => Vector(); case 1 => Vector(rows); case n => Vector(rows, Some(n)) }
      if (ix.length != dims.size) fail(s"'$ix' names ${ix.length} indices of an order-${dims.size} operand")
      ix.zip(dims).collect { case (c, Some(n)) => c -> n }
    }
    known.groupMap(_._1)(_._2).map { case (c, ns) =>
      if (ns.distinct.size > 1) fail(s"index '$c' has extents ${ns.distinct.mkString(" and ")}")
      c -> ns.head
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
  /** Lower a dense einsum over operands whose column counts [[extents]]
    * checks; any spec the match does not list is an error. `ng` supplies
    * fresh variable/relation names; the last rule derives the result, and
    * its head is the result's shape: `(c0)` or `(id, c0..)`. */
  def lowerDense(spec: String, ops: Vector[DenseOp], ng: NameGen): Program = {
    extents(parse(spec), ops.map(op => (None, op.nCols)))
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
