package repro.mini

import repro.core.TondIR.{show, TBin, TConst, TExt, TIf, Term, TVar}
import repro.frontend.Dsl._
import repro.tensor.Einsum

/** Eager operator-at-a-time interpreter over local collections — the
  * reproduction's "Python (Pandas/NumPy)" competitor.
  *
  * Substitution rationale (DESIGN.md): what makes the Pandas/NumPy baseline
  * slow in the paper is its execution model, not the language: every API call
  * materializes a full intermediate, nothing fuses across calls, and
  * everything is single-threaded. This interpreter reproduces exactly that
  * model in the JVM over the same DSL DAG, and the same TondIR terms, that
  * PyTond compiles, so the baseline and the compiled paths run identical
  * logical workloads. Nothing emits a DSL program as pandas code yet
  * (ROADMAP item 11), so this stays the baseline until something does.
  */
object MiniPandas {

  /** A materialized DataFrame: column names + row-major values. */
  final case class Table(schema: Vector[String], rows: Vector[Array[Any]]) {
    def idx(c: String): Int = {
      val i = schema.indexOf(c); require(i >= 0, s"mini: no column $c in $schema"); i
    }
  }

  // ------------------------------------------------------------ value utils
  private def num(v: Any): Double = v match {
    case null                  => 0.0
    case d: Double             => d
    case l: Long               => l.toDouble
    case i: Int                => i.toDouble
    case f: Float              => f.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case d: java.sql.Date      => d.toLocalDate.toEpochDay.toDouble
    case d: java.time.LocalDate => d.toEpochDay.toDouble
    case b: Boolean            => if (b) 1.0 else 0.0
    case s: String             => s.toDouble
  }

  private def isNum(v: Any): Boolean = v match {
    case _: Double | _: Long | _: Int | _: Float | _: java.math.BigDecimal |
         _: java.sql.Date | _: java.time.LocalDate => true
    case _ => false
  }

  private def cmp(a: Any, b: Any): Int =
    if (isNum(a) && isNum(b)) java.lang.Double.compare(num(a), num(b))
    else String.valueOf(a).compareTo(String.valueOf(b))

  /** Rows ordered by the columns `by` (index, ascending?), values compared by `cmp`. */
  private def rowOrdering(by: Vector[(Int, Boolean)]): Ordering[Array[Any]] = new Ordering[Array[Any]] {
    def compare(a: Array[Any], b: Array[Any]): Int = {
      by.foreach { case (i, up) =>
        val c = cmp(a(i), b(i)); if (c != 0) return if (up) c else -c }
      0
    }
  }

  private def keyOf(v: Any): Any = v match {
    case i: Int => i.toLong
    case d: java.sql.Date => d.toLocalDate
    case x => x
  }

  /** `rows` indexed by their values at the columns `ix`. A row with a NULL
    * there is left out, so a probe key holding a NULL finds nothing: a NULL
    * key matches no row, as in SQL (pandas' `merge` would match NaN keys). */
  private def keyIndex(rows: Vector[Array[Any]], ix: Vector[Int]): Map[Vector[Any], Vector[Array[Any]]] =
    rows.filter(r => ix.forall(r(_) != null)).groupBy(r => ix.map(i => keyOf(r(i))))

  private def likeRegex(pat: String): java.util.regex.Pattern =
    java.util.regex.Pattern.compile(
      pat.flatMap {
        case '%' => ".*"
        case '_' => "."
        case c if "\\.[]{}()*+-?^$|".contains(c) => "\\" + c
        case c => c.toString
      },
      java.util.regex.Pattern.DOTALL)

  // --------------------------------------------------------- expression eval
  /** Evaluate a DSL term, whose variables are column names of `schema`, over `row`. */
  def eval(e: Term, schema: Vector[String], row: Array[Any]): Any = e match {
    case TVar(n)   => row(schema.indexOf(n))
    case TConst(v) => v
    case TIf(c, t, f) => if (truthy(eval(c, schema, row))) eval(t, schema, row) else eval(f, schema, row)
    case TBin(op @ ("like" | "notlike"), x, TConst(p: String)) =>
      likeRegex(p).matcher(String.valueOf(eval(x, schema, row))).matches() == (op == "like")
    case TBin("in", x, TExt("list", vals)) =>
      vals.map(v => keyOf(eval(v, schema, row))).contains(keyOf(eval(x, schema, row)))
    case TExt("year", Seq(a)) => eval(a, schema, row) match {
      case d: java.sql.Date       => d.toLocalDate.getYear.toLong
      case d: java.time.LocalDate => d.getYear.toLong
      case x                      => sys.error(s"year($x)")
    }
    case TExt("substr", Seq(a, TConst(f: Long), TConst(l: Long))) =>
      val s = String.valueOf(eval(a, schema, row)); s.substring(f.toInt - 1, math.min(s.length, (f - 1 + l).toInt))
    case TBin(op, l, r) =>
      val (a, b) = (eval(l, schema, row), eval(r, schema, row))
      op match {
        case "+" => arith(a, b, _ + _); case "-" => arith(a, b, _ - _)
        case "*" => arith(a, b, _ * _); case "/" => num(a) / num(b)
        case "and" => truthy(a) && truthy(b); case "or" => truthy(a) || truthy(b)
        case _ => compare(op, a, b)
      }
    case _ => sys.error(s"mini: term ${show(e)}")
  }

  private def arith(a: Any, b: Any, f: (Double, Double) => Double): Any = (a, b) match {
    case (x: Long, y: Long) => f(x.toDouble, y.toDouble).toLong
    case _                  => f(num(a), num(b))
  }
  /** `a op b` for a comparison `op`, in filters and semi-join conditions
    * alike; a comparison with NULL is never true, as in a SQL WHERE. */
  private def compare(op: String, a: Any, b: Any): Boolean = op match {
    case "=" | "<>" | "<" | "<=" | ">" | ">=" if a == null || b == null => false
    case "=" => equal(a, b);     case "<>" => !equal(a, b)
    case "<" => cmp(a, b) < 0;   case "<=" => cmp(a, b) <= 0
    case ">" => cmp(a, b) > 0;   case ">=" => cmp(a, b) >= 0
    case x => sys.error(s"mini: op $x")
  }
  private def equal(a: Any, b: Any): Boolean =
    if (isNum(a) && isNum(b)) num(a) == num(b) else String.valueOf(a) == String.valueOf(b)
  private def truthy(v: Any): Boolean = v match {
    case b: Boolean => b; case null => false; case x => num(x) != 0.0 }

  // ---------------------------------------------------------- op evaluation
  /** Evaluate a DSL DAG eagerly. Each node materializes its full result
    * (the Pandas execution model). */
  def run(df: Df, inputs: String => Table): Table = {
    val memo = scala.collection.mutable.HashMap[POp, Table]()

    def go(op: POp): Table = memo.getOrElseUpdate(op, op match {
      case Source(name, _) => inputs(name)

      case Filter(in, cond) =>
        val t = go(in)
        Table(t.schema, t.rows.filter(r => truthy(eval(cond, t.schema, r))))

      case Project(in, cols, distinct) =>
        val t = go(in); val ix = cols.map(_._2)
        val rows =
          if (distinct) t.rows.map(r => ix.map(i => keyOf(r(i)))).distinct.map(_.toArray)
          else if (ix == t.schema.indices) t.rows   // rename and toDf copy nothing
          else t.rows.map(r => ix.map(r).toArray)
        Table(cols.map(_._1), rows)

      case w @ WithCols(in, newCols) =>
        val t = go(in)
        val kept = t.schema.filterNot(newCols.map(_._1).contains)
        val keptIx = kept.map(t.idx)
        Table(w.schema, t.rows.map { r =>
          (keptIx.map(r) ++ newCols.map { case (_, e) => eval(e, t.schema, r) }).toArray })

      case mg @ Merge(l, r, how, leftOn, rightOn, _) =>
        val (lt, rt) = (go(l), go(r))
        val lIx = mg.leftOut.map { case (src, _) => lt.idx(src) }
        val rIx = mg.rightOut.map { case (src, _) => rt.idx(src) }
        val out = Vector.newBuilder[Array[Any]]
        how match {
          case "cross" =>
            for (a <- lt.rows; b <- rt.rows) out += (lIx.map(a) ++ rIx.map(b)).toArray
          case "inner" | "left" =>
            val lk = leftOn.map(lt.idx); val rk = rightOn.map(rt.idx)
            val index = keyIndex(rt.rows, rk)
            for (a <- lt.rows) {
              val key = lk.map(i => keyOf(a(i)))
              index.get(key) match {
                case Some(matches) => matches.foreach(b => out += (lIx.map(a) ++ rIx.map(b)).toArray)
                case None if how == "left" => out += (lIx.map(a) ++ rIx.map(_ => null)).toArray
                case None => ()
              }
            }
          case other => sys.error(s"mini: merge how=$other")
        }
        Table(mg.schema, out.result())

      case ga @ GroupAgg(in, keys, aggs) =>
        val t = go(in); val kIx = keys.map(t.idx)
        val groups = scala.collection.mutable.LinkedHashMap[Vector[Any], Vector[Array[Any]]]()
        // No keys: one group, so one row even over empty input, as SQL without GROUP BY.
        if (keys.isEmpty) groups(Vector.empty) = t.rows
        else t.rows.foreach { r =>
          val k = kIx.map(i => keyOf(r(i)))
          groups(k) = groups.getOrElse(k, Vector.empty) :+ r
        }
        Table(ga.schema, groups.iterator.map { case (k, rs) =>
          (k ++ aggs.map(a => aggregate(a, t.schema, rs))).toArray }.toVector)

      case SortLimit(in, by, asc, limit) =>
        val t = go(in)
        val sorted = if (by.isEmpty) t.rows else t.rows.sorted(rowOrdering(by.map(t.idx).zip(asc.padTo(by.size, true))))
        Table(t.schema, limit.map(n => sorted.take(n.toInt)).getOrElse(sorted))

      case SemiJoin(l, r, on, neq, negated) =>
        val (lt, rt) = (go(l), go(r))
        val lk = on.map { case (lc, _) => lt.idx(lc) }
        val rk = on.map { case (_, rc) => rt.idx(rc) }
        val neqIx = neq.map { case (op, lc, rc) => (op, lt.idx(lc), rt.idx(rc)) }
        val index = keyIndex(rt.rows, rk)
        val keep = lt.rows.filter { a =>
          val matches = index.getOrElse(lk.map(i => keyOf(a(i))), Vector.empty)
          val hit = matches.exists(b => neqIx.forall { case (op, li, ri) => compare(op, a(li), b(ri)) })
          if (negated) !hit else hit
        }
        Table(lt.schema, keep)

      case pv @ Pivot(in, index, columns, values, distinctVals) =>
        val t = go(in)
        val (iIx, cIx, vIx) = (t.idx(index), t.idx(columns), t.idx(values))
        val groups = scala.collection.mutable.LinkedHashMap[Any, Array[Double]]()
        val valPos = distinctVals.map(keyOf).zipWithIndex.toMap
        t.rows.foreach { r =>
          val acc = groups.getOrElseUpdate(keyOf(r(iIx)), Array.fill(distinctVals.size)(0.0))
          valPos.get(keyOf(r(cIx))).foreach(p => acc(p) += num(r(vIx)))
        }
        Table(pv.schema, groups.iterator.map { case (k, acc) =>
          (k +: acc.map(_.asInstanceOf[Any]).toVector).toArray }.toVector)

      case tm @ ToMatrix(in, cols) =>
        val t = go(in); val ix = cols.map(t.idx)
        // UID ordered by the selected columns, matching the compiled path.
        val sorted = t.rows.map(r => ix.map(i => num(r(i))).toArray)
          .sortBy(_.toVector)(Ordering.Implicits.seqOrdering[Vector, Double])
        Table(tm.schema, sorted.zipWithIndex.map { case (r, i) =>
          (i.toLong +: r.map(_.asInstanceOf[Any]).toVector).toArray })

      case aj @ AlignJoin(l, r) =>
        val (lt, rt) = (go(l), go(r))
        require(lt.rows.size == rt.rows.size, "alignWith: row counts differ")
        // Each side numbered in the order of all its columns, as the compiled UID.
        def ordered(t: Table): Vector[Array[Any]] = t.rows.sorted(rowOrdering(t.schema.indices.toVector.map(_ -> true)))
        Table(aj.schema, ordered(lt).zip(ordered(rt)).map { case (a, b) => a ++ b })

      case EinsumOp(spec, operands) =>
        val ops = operands.map(go)
        einsum(spec, ops)
    })

    go(df.op)
  }

  private def aggregate(a: AggSpec, schema: Vector[String], rows: Vector[Array[Any]]): Any = {
    a.fn match {
      case "count" if a.distinct =>
        rows.flatMap(r => Option(eval(a.arg, schema, r)).map(keyOf)).distinct.size.toLong
      case "count" => rows.count(r => eval(a.arg, schema, r) != null).toLong
      case "sum"   => rows.iterator.map(r => num(eval(a.arg, schema, r))).sum
      case "avg"   => if (rows.isEmpty) null else rows.iterator.map(r => num(eval(a.arg, schema, r))).sum / rows.size
      case "min"   => if (rows.isEmpty) null else rows.map(r => eval(a.arg, schema, r)).min(Ordering.fromLessThan[Any](cmp(_, _) < 0))
      case "max"   => if (rows.isEmpty) null else rows.map(r => eval(a.arg, schema, r)).max(Ordering.fromLessThan[Any](cmp(_, _) < 0))
      case f       => sys.error(s"mini: agg $f")
    }
  }

  // -------------------------------------------------------------- MiniNumPy
  /** An array table's values, row-major: `(id, c0..)` ordered by id, or the
    * one value of a one-row `(c0)` scalar. */
  private def toDense(t: Table): Array[Double] = {
    val w = t.schema.size - 1
    require(w > 0 || t.rows.size == 1, s"mini einsum: a (c0) scalar has ${t.rows.size} rows")
    if (w == 0) return Array(num(t.rows(0)(0)))
    val a = new Array[Double](t.rows.size * w)
    for ((r, i) <- t.rows.sortBy(r => num(r(0))).iterator.zipWithIndex; c <- 0 until w) a(i * w + c) = num(r(c + 1))
    a
  }

  /** Einsum as one loop nest over the index extents, as NumPy's unoptimized
    * `einsum` runs it — the NumPy stand-in. `Einsum.extents` applies NumPy's
    * shape rules to the full shapes. Indices nest in order of first
    * appearance in the inputs, and precomputed strides keep each operand's
    * offset current. The result is `(c0)`, `(id, c0)` or `(id, c0..)`. */
  def einsum(spec: String, ops: Vector[Table]): Table = {
    val s = Einsum.parse(spec)
    val ext = Einsum.extents(s, ops.map(t => (Some(t.rows.size), t.schema.size - 1)))
    val idx = s.inputs.mkString.distinct
    val n = idx.map(ext).toArray
    // How far a row-major tensor over `ix`'s indices moves as each loop index steps.
    def strides(ix: String): Array[Int] =
      idx.map(c => ix.indices.filter(ix(_) == c).map(p => ix.drop(p + 1).map(ext).product).sum).toArray
    val vals = ops.map(toDense).toArray
    val opStride = { val st = s.inputs.map(strides); Array.tabulate(n.length, st.size)((d, k) => st(k)(d)) }
    val outStride = strides(s.output)
    val out = new Array[Double](s.output.map(ext).product)
    val off = new Array[Int](vals.length)
    // Loop `d` of the nest, at output offset `o`; the innermost loop does one
    // multiply-add per index tuple.
    def nest(d: Int, o: Int): Unit = {
      val (st, os) = (opStride(d), outStride(d)); var t = 0; var k = 0
      if (d == n.length - 1) while (t < n(d)) {
        var p = 1.0; k = 0
        while (k < vals.length) { p *= vals(k)(off(k) + t * st(k)); k += 1 }
        out(o + t * os) += p; t += 1
      } else {
        while (t < n(d)) { nest(d + 1, o + t * os); k = 0; while (k < vals.length) { off(k) += st(k); k += 1 }; t += 1 }
        k = 0; while (k < vals.length) { off(k) -= n(d) * st(k); k += 1 }
      }
    }
    if (n.isEmpty) out(0) = vals.map(_(0)).product else nest(0, 0)
    val w = if (s.output.length == 2) ext(s.output(1)) else 1
    if (s.output.isEmpty) Table(Vector("c0"), Vector(Array(out(0))))
    else Table("id" +: Vector.tabulate(w)(c => s"c$c"), Vector.tabulate(out.length / w)(i =>
      Array.tabulate[Any](w + 1)(c => if (c == 0) i.toLong else out(i * w + c - 1))))
  }
}
