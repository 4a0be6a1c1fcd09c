package repro.tensor

import repro.core.Catalog
import repro.core.TondIR._

/** Einsum → TondIR translation (§III-D, Table VI).
  *
  * '''Dense layout''': tensors are relations `(id, c0..c{n-1})` with a
  * 0-based unique `id`; a vector is an `n×1` matrix; a scalar is a one-row,
  * one-column relation. Translation goes through the paper's fundamental
  * kernels (ES1–ES9); non-kernel expressions are reduced to kernel chains by
  * [[Einsum.plan]] (the paper's `'ab,cc->ba'` walk-through is reproduced in
  * tests). Wide intermediate results (e.g. the flattened `n²`-column output
  * of ES8) are reshaped back to `(id, c0..)` form with an inline VALUES
  * index relation and conditional sums — exactly the Fig. 2 pattern.
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

  /** A lowered einsum: rules to append, the result relation, and its shape
    * (order 0 = scalar `(c0)`, 1 = vector `(id, c0)`, 2 = matrix
    * `(id, c0..c{n-1})` with `nCols` value columns). */
  final case class Lowered(rules: Vector[Rule], rel: String, order: Int, nCols: Int)

  /** Dense operand: relation name + number of value columns (0 ⇒ scalar). */
  final case class DenseOp(rel: String, order: Int, nCols: Int)

  // ==================================================================== plan
  /** Symbolic kernel planning: reduce a binary/unary einsum over order ≤ 2
    * tensors to a chain of fundamental-kernel applications (Table VI names,
    * plus the operand `swap` step from §III-D). Used by tests to check the
    * paper's worked example and by [[lowerDense]] to dispatch. */
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
    * variable/relation names; the generated rules chain onto the caller's
    * program. */
  def lowerDense(spec: String, ops: Vector[DenseOp], ng: NameGen): Lowered = {
    normalize(spec) match {
      case "i->"       => totalSum(ops(0), ng)
      case "ij->"      => totalSum(ops(0), ng)
      case "ij->i"     => rowSum(ops(0), ng)
      case "ij->j"     => colSumVector(ops(0), ng)
      case "ii->i"     => diagonal(ops(0), ng)
      case "ii->"      => { val d = diagonal(ops(0), ng); val t = totalSum(DenseOp(d.rel, 1, 1), ng); t.copy(rules = d.rules ++ t.rules) }
      case ",->"       => scalarMul(ops(0), ops(1), ng)
      case ",ij->ij"   => scalarTimesMatrix(ops(0), ops(1), ng)
      case "ij,->ij"   => scalarTimesMatrix(ops(1), ops(0), ng)
      case "ij,ij->ij" => hadamard(ops(0), ops(1), ng)
      case "i,i->ii" | "i,i->i" => hadamard(ops(0), ops(1), ng)
      case "ij,ik->jk" => batchOuter(ops(0), ops(1), ng)
      case "i,i->"     => innerProduct(ops(0), ops(1), ng)
      case "ij,j->i"   => matVec(ops(0), ops(1), ng)
      case "ij,jk->ik" => matMul(ops(0), ops(1), ng)
      case "ij,ij->"   => fullDot(ops(0), ops(1), ng)
      case other       => sys.error(s"einsum dense lowering: unsupported '$other'")
    }
  }

  private def vars(ng: NameGen, n: Int, stem: String): Vector[String] =
    Vector.tabulate(n)(i => ng.fresh(s"$stem$i"))

  private def matAtom(op: DenseOp, ng: NameGen, stem: String): (RelAtom, String, Vector[String]) = {
    val id = ng.fresh(s"${stem}id")
    val cs = vars(ng, op.nCols, stem)
    (RelAtom(op.rel, id +: cs), id, cs)
  }

  /** ES1 / 'ij->' — total sum into a scalar relation `(c0)`. */
  def totalSum(op: DenseOp, ng: NameGen): Lowered = {
    val (atom, _, cs) = matAtom(op, ng, "a")
    val s = ng.fresh("s")
    val rel = ng.fresh("es1")
    val body = Vector[Atom](atom, AssignAtom(s, TAgg("sum", cs.map(TVar(_): Term).reduce(TBin("+", _, _)))))
    Lowered(Vector(Rule(Head(rel, Vector("c0" -> TVar(s))), body)), rel, 0, 1)
  }

  /** ES2 'ij->i' — row sums: no aggregation, pure per-row arithmetic. */
  def rowSum(op: DenseOp, ng: NameGen): Lowered = {
    val (atom, id, cs) = matAtom(op, ng, "a")
    val s = ng.fresh("s")
    val rel = ng.fresh("es2")
    val body = Vector[Atom](atom, AssignAtom(s, cs.map(TVar(_): Term).reduce(TBin("+", _, _))))
    Lowered(Vector(Rule(Head(rel, Vector("id" -> TVar(id), "c0" -> TVar(s))), body)), rel, 1, 1)
  }

  /** 'ij->j' — column sums, reshaped from one wide row to an n×1 vector. */
  def colSumVector(op: DenseOp, ng: NameGen): Lowered = {
    val (atom, _, cs) = matAtom(op, ng, "a")
    val sums = cs.map(c => ng.fresh("s") -> TAgg("sum", TVar(c)))
    val wide = ng.fresh("csw")
    val r1 = Rule(Head(wide, sums.zipWithIndex.map { case ((v, _), i) => s"c$i" -> TVar(v) }.toVector),
                  atom +: sums.map { case (v, t) => AssignAtom(v, t) })
    val resh = reshapeRowToVector(wide, op.nCols, ng)
    Lowered(r1 +: resh.rules, resh.rel, 1, 1)
  }

  /** ES3 'ii->i' — diagonal to column via the Table V if-chain. */
  def diagonal(op: DenseOp, ng: NameGen): Lowered = {
    val (atom, id, cs) = matAtom(op, ng, "a")
    val d = ng.fresh("d")
    val rel = ng.fresh("es3")
    val chain = cs.zipWithIndex.reverse.foldLeft(TConst(0.0): Term) { case (acc, (c, i)) =>
      TIf(TBin("=", TVar(id), TConst(i.toLong)), TVar(c), acc)
    }
    val body = Vector[Atom](atom, AssignAtom(d, chain))
    Lowered(Vector(Rule(Head(rel, Vector("id" -> TVar(id), "c0" -> TVar(d))), body)), rel, 1, 1)
  }

  /** ES5 ',->' — scalar product of two one-row relations. */
  def scalarMul(a: DenseOp, b: DenseOp, ng: NameGen): Lowered = {
    val (x, y) = (ng.fresh("x"), ng.fresh("y"))
    val rel = ng.fresh("es5")
    val body = Vector[Atom](RelAtom(a.rel, Vector(x)), RelAtom(b.rel, Vector(y)))
    Lowered(Vector(Rule(Head(rel, Vector("c0" -> TBin("*", TVar(x), TVar(y)))), body)), rel, 0, 1)
  }

  /** ES6 ',ij->ij' — scalar times matrix (cross join with a one-row rel). */
  def scalarTimesMatrix(s: DenseOp, m: DenseOp, ng: NameGen): Lowered = {
    val sv = ng.fresh("s")
    val (atom, id, cs) = matAtom(m, ng, "a")
    val rel = ng.fresh("es6")
    val cols = ("id" -> (TVar(id): Term)) +: cs.zipWithIndex.map { case (c, i) =>
      s"c$i" -> (TBin("*", TVar(sv), TVar(c)): Term) }
    val body = Vector[Atom](RelAtom(s.rel, Vector(sv)), atom)
    Lowered(Vector(Rule(Head(rel, cols.toVector), body)), rel, 2, m.nCols)
  }

  /** ES7 'ij,ij->ij' — Hadamard product (join on id). */
  def hadamard(a: DenseOp, b: DenseOp, ng: NameGen): Lowered = {
    val id = ng.fresh("id")
    val as = vars(ng, a.nCols, "a"); val bs = vars(ng, b.nCols, "b")
    val rel = ng.fresh("es7")
    val cols = ("id" -> (TVar(id): Term)) +: as.zip(bs).zipWithIndex.map { case ((x, y), i) =>
      s"c$i" -> (TBin("*", TVar(x), TVar(y)): Term) }
    val body = Vector[Atom](RelAtom(a.rel, id +: as), RelAtom(b.rel, id +: bs))
    Lowered(Vector(Rule(Head(rel, cols.toVector), body)), rel, math.max(a.order, b.order), a.nCols)
  }

  /** ES8 'ij,ik->jk' — batch vector outer product (e.g. covariance):
    * join on id, one scalar SUM per output cell, then reshape the wide
    * one-row result to an `n1×n2` matrix (the Fig. 2 pattern). */
  def batchOuter(a: DenseOp, b: DenseOp, ng: NameGen): Lowered = {
    val id = ng.fresh("id")
    val as = vars(ng, a.nCols, "a"); val bs = vars(ng, b.nCols, "b")
    val wide = ng.fresh("es8w")
    val cells = for (j <- 0 until a.nCols; k <- 0 until b.nCols)
      yield ng.fresh("p") -> TAgg("sum", TBin("*", TVar(as(j)), TVar(bs(k))))
    val body = Vector[Atom](RelAtom(a.rel, id +: as), RelAtom(b.rel, id +: bs)) ++
      cells.map { case (v, t) => AssignAtom(v, t) }
    val r1 = Rule(Head(wide, cells.zipWithIndex.map { case ((v, _), i) => s"c$i" -> (TVar(v): Term) }.toVector), body)
    val resh = reshapeRowToMatrix(wide, a.nCols, b.nCols, ng)
    Lowered(r1 +: resh.rules, resh.rel, 2, b.nCols)
  }

  /** 'i,i->' — vector inner product. */
  def innerProduct(a: DenseOp, b: DenseOp, ng: NameGen): Lowered = {
    val id = ng.fresh("id"); val (x, y) = (ng.fresh("x"), ng.fresh("y"))
    val s = ng.fresh("s"); val rel = ng.fresh("inner")
    val body = Vector[Atom](RelAtom(a.rel, Vector(id, x)), RelAtom(b.rel, Vector(id, y)),
                            AssignAtom(s, TAgg("sum", TBin("*", TVar(x), TVar(y)))))
    Lowered(Vector(Rule(Head(rel, Vector("c0" -> TVar(s))), body)), rel, 0, 1)
  }

  /** 'ij,ij->' — elementwise product, totalled. */
  def fullDot(a: DenseOp, b: DenseOp, ng: NameGen): Lowered = {
    val h = hadamard(a, b, ng)
    val t = totalSum(DenseOp(h.rel, 2, a.nCols), ng)
    t.copy(rules = h.rules ++ t.rules)
  }

  /** 'ij,j->i' — matrix–vector product: broadcast the vector into one row
    * (conditional sums — the pivot pattern), cross join, per-row dot. */
  def matVec(m: DenseOp, v: DenseOp, ng: NameGen): Lowered = {
    val row = broadcastVector(v, m.nCols, ng)
    val (atom, id, cs) = matAtom(m, ng, "a")
    val vs = vars(ng, m.nCols, "v")
    val rel = ng.fresh("mv")
    val dot = cs.zip(vs).map { case (c, w) => TBin("*", TVar(c), TVar(w)): Term }.reduce(TBin("+", _, _))
    val body = Vector[Atom](atom, RelAtom(row.rel, vs))
    Lowered(row.rules :+ Rule(Head(rel, Vector("id" -> TVar(id), "c0" -> dot)), body), rel, 1, 1)
  }

  /** 'ij,jk->ik' — matmul with the right operand broadcast to one wide row
    * (valid because its row count equals the left operand's — statically
    * known — column count). */
  def matMul(a: DenseOp, b: DenseOp, ng: NameGen): Lowered = {
    val n = a.nCols           // inner dimension = rows of b
    val p = b.nCols
    // broadcast b (n rows × p cols) into one row of n*p cells b_{j*p+k}
    val (bAtom, bid, bcs) = matAtom(b, ng, "b")
    val cells = for (j <- 0 until n; k <- 0 until p) yield
      ng.fresh("w") -> TAgg("sum", TIf(TBin("=", TVar(bid), TConst(j.toLong)), TVar(bcs(k)), TConst(0.0)))
    val wide = ng.fresh("bw")
    val r1 = Rule(Head(wide, cells.zipWithIndex.map { case ((v, _), i) => s"c$i" -> (TVar(v): Term) }.toVector),
                  bAtom +: cells.map { case (v, t) => AssignAtom(v, t) }.toVector)
    val (aAtom, id, acs) = matAtom(a, ng, "a")
    val ws = vars(ng, n * p, "w2")
    val rel = ng.fresh("mm")
    val outCols = ("id" -> (TVar(id): Term)) +: (0 until p).map { k =>
      val dot = (0 until n).map(j => TBin("*", TVar(acs(j)), TVar(ws(j * p + k))): Term).reduce(TBin("+", _, _))
      s"c$k" -> dot
    }.toVector
    val r2 = Rule(Head(rel, outCols), Vector[Atom](aAtom, RelAtom(wide, ws)))
    Lowered(Vector(r1, r2), rel, 2, p)
  }

  /** Pivot an `n×1` vector into a one-row, n-column relation via
    * conditional sums (`sum(if(id=k, c0, 0))`). */
  def broadcastVector(v: DenseOp, n: Int, ng: NameGen): Lowered = {
    val id = ng.fresh("id"); val c = ng.fresh("c")
    val cells = (0 until n).map(k =>
      ng.fresh("v") -> TAgg("sum", TIf(TBin("=", TVar(id), TConst(k.toLong)), TVar(c), TConst(0.0))))
    val rel = ng.fresh("vrow")
    val body = RelAtom(v.rel, Vector(id, c)) +: cells.map { case (x, t) => AssignAtom(x, t) }.toVector
    Lowered(Vector(Rule(Head(rel, cells.zipWithIndex.map { case ((x, _), i) => s"c$i" -> (TVar(x): Term) }.toVector), body)),
            rel, 2, n)
  }

  /** Reshape a one-row `n`-column relation into an `n×1` vector using an
    * inline VALUES index and an if-chain (Fig. 2's v4_2/v4_3 pattern). */
  def reshapeRowToVector(wide: String, n: Int, ng: NameGen): Lowered = {
    val idx = ng.fresh("rid")
    val cs = vars(ng, n, "w")
    val rel = ng.fresh("vec")
    val chain = cs.zipWithIndex.reverse.foldLeft(TConst(0.0): Term) { case (acc, (c, i)) =>
      TIf(TBin("=", TVar(idx), TConst(i.toLong)), TVar(c), acc) }
    val body = Vector[Atom](
      RelAtom(wide, cs),
      ConstAtom(Vector(idx), Vector.tabulate(n)(i => Vector(TConst(i.toLong)))))
    Lowered(Vector(Rule(Head(rel, Vector("id" -> TVar(idx), "c0" -> chain)), body)), rel, 1, 1)
  }

  /** Reshape a one-row `n1*n2`-column relation into an `n1×n2` matrix. */
  def reshapeRowToMatrix(wide: String, n1: Int, n2: Int, ng: NameGen): Lowered = {
    val idx = ng.fresh("rid")
    val cs = vars(ng, n1 * n2, "w")
    val rel = ng.fresh("mat")
    val cols = ("id" -> (TVar(idx): Term)) +: (0 until n2).map { k =>
      val chain = (0 until n1).reverse.foldLeft(TConst(0.0): Term) { case (acc, j) =>
        TIf(TBin("=", TVar(idx), TConst(j.toLong)), TVar(cs(j * n2 + k)), acc) }
      s"c$k" -> chain
    }.toVector
    val body = Vector[Atom](
      RelAtom(wide, cs),
      ConstAtom(Vector(idx), Vector.tabulate(n1)(i => Vector(TConst(i.toLong)))))
    Lowered(Vector(Rule(Head(rel, cols), body)), rel, 2, n2)
  }

  // ============================================================ sparse (COO)
  /** COO operand: `(i, v)` for vectors, `(i, j, v)` for matrices. */
  final case class CooOp(rel: String, order: Int)

  /** Generic n-ary sparse einsum (Blacher et al.): join operands on shared
    * index variables, group by output indices, sum the product of values. */
  def lowerSparse(spec: String, ops: Vector[CooOp], ng: NameGen): Lowered = {
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
    Lowered(Vector(Rule(head, body.toVector)), rel, s.output.length, -1)
  }
}
