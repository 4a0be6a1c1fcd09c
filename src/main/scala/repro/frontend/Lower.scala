package repro.frontend

import repro.core.{Catalog, TondIR}
import repro.core.TondIR._
import repro.tensor.Einsum
import Dsl._

/** DSL → TondIR translation (§III-C/§III-D, Table V).
  *
  * The operator DAG is walked bottom-up; every node becomes one rule (the
  * ANF property: one operation per binding), with globally fresh variable
  * and relation names (relation-access renaming, §III-B). Structurally
  * identical sub-DAGs are memoized to a single rule chain, mirroring how
  * ANF names shared subexpressions once. A DSL expression is already a
  * TondIR term over column names; renaming each column to the variable that
  * binds it makes it a rule term.
  */
object Lower {

  /** Result of lowering one node: its relation name and column names. An
    * array's shape is its schema: `(c0)` for a scalar, `(id, c0..)`
    * otherwise. */
  private final case class Val(rel: String, schema: Vector[String])

  /** What `read` returns for one input. */
  private type Read = (Val, Vector[String], String => String)

  def lower(root: Df, cat: Catalog): Program = {
    val ng = new NameGen("v")
    val rules = scala.collection.mutable.ArrayBuffer[Rule]()
    val memo = scala.collection.mutable.HashMap[POp, Val]()

    def freshVars(schema: Vector[String]): Vector[String] = schema.map(c => ng.fresh(c))

    def conjuncts(e: Term): Vector[Term] = e match {
      case TBin("and", l, r) => conjuncts(l) ++ conjuncts(r)
      case other             => Vector(other)
    }

    /** Emit one rule deriving `cols` (name → term) from the given body. */
    def emit(cols: Vector[(String, Term)], body: Vector[Atom],
             group: Vector[String] = Vector.empty, distinct: Boolean = false,
             sort: Vector[(String, Boolean)] = Vector.empty, limit: Option[Long] = None): Val = {
      val rel = ng.fresh("v")
      rules += Rule(Head(rel, cols, group, distinct, sort, limit), body)
      Val(rel, cols.map(_._1))
    }

    /** Lower `in` and read its result: the value, one fresh variable per
      * column, and the column → variable function (the last column of a
      * repeated name wins). */
    def read(in: POp): Read = {
      val p = go(in); val vs = freshVars(p.schema)
      (p, vs, c => p.schema.lastIndexOf(c) match {
        case -1 => sys.error(s"lower: unknown column '$c' (have ${p.schema.distinct.sorted})")
        case i  => vs(i)
      })
    }

    /** Lower both sides of a join, then read them: the left as `read` does,
      * the right with each column of `pairs` (left, right) taking its left
      * column's variable and every other column a fresh one. */
    def readJoin(l: POp, r: POp, pairs: Vector[(String, String)]): (Read, Read) = {
      go(l); val pr = go(r)   // both sides' rules before the left variables; read(l) hits the memo
      val left @ (_, _, lVarOf) = read(l)
      val joinVar: Map[String, String] = pairs.map { case (lc, rc) => rc -> lVarOf(lc) }.toMap
      val rv = pr.schema.map(c => joinVar.getOrElse(c, ng.fresh(c)))
      (left, (pr, rv, c => rv(pr.schema.lastIndexOf(c))))
    }

    def go(op: POp): Val = memo.getOrElseUpdate(op, op match {
      case Source(name, schema) => Val(name, schema)

      case Filter(in, cond) =>
        val (p, vs, varOf) = read(in)
        val preds = conjuncts(cond).map(c => PredAtom(c.rename(varOf)))
        emit(p.schema.zip(vs.map(TVar(_): Term)), RelAtom(p.rel, vs) +: preds)

      case Project(in, cols, distinct) =>
        val (p, vs, _) = read(in)
        emit(cols.map { case (n, i) => n -> (TVar(vs(i)): Term) }, Vector(RelAtom(p.rel, vs)), distinct = distinct)

      case w @ WithCols(in, newCols) =>
        val (p, vs, varOf) = read(in)
        val assigns = newCols.map { case (n, e) => n -> AssignAtom(ng.fresh(n), e.rename(varOf)) }
        def outVar(c: String): String = assigns.lastIndexWhere(_._1 == c) match {
          case -1 => varOf(c)
          case j  => assigns(j)._2.v
        }
        emit(w.schema.map(c => c -> (TVar(outVar(c)): Term)),
             RelAtom(p.rel, vs) +: assigns.map(_._2))

      case m @ Merge(l, r, how, leftOn, rightOn, _) =>
        // Inner-join variables get identical names (Datalog unification,
        // §III-C); cross and outer joins keep distinct variables.
        val ((pl, lv, lVarOf), (pr, rv, rVarOf)) =
          readJoin(l, r, if (how == "inner") leftOn.zip(rightOn) else Vector.empty)
        val outer = how match {
          case "inner" | "cross" => None
          case "left" | "right" | "full" =>
            // Outer joins carry an explicit ON condition in the outer_* marker (§III-C).
            Some(how -> leftOn.zip(rightOn).map { case (lc, rc) =>
              TBin("=", TVar(lVarOf(lc)), TVar(rVarOf(rc))): Term }.reduce(TBin("and", _, _)))
          case other => sys.error(s"merge: unsupported how='$other'")
        }
        emit(m.leftOut.map { case (src, out) => out -> (TVar(lVarOf(src)): Term) } ++
               m.rightOut.map { case (src, out) => out -> (TVar(rVarOf(src)): Term) },
             Vector(RelAtom(pl.rel, lv), RelAtom(pr.rel, rv, outer)))

      case GroupAgg(in, keys, aggs) =>
        val (p, vs, varOf) = read(in)
        val assigns = aggs.map(a => AssignAtom(ng.fresh(a.out), TAgg(a.fn, a.arg.rename(varOf), a.distinct)))
        val cols = keys.map(k => k -> (TVar(varOf(k)): Term)) ++
                   aggs.zip(assigns).map { case (a, as) => a.out -> (TVar(as.v): Term) }
        emit(cols, RelAtom(p.rel, vs) +: assigns, group = keys.map(varOf))

      case SortLimit(in, by, asc, limit) =>
        val (p, vs, _) = read(in)
        emit(p.schema.zip(vs.map(TVar(_): Term)), Vector(RelAtom(p.rel, vs)),
             sort = by.zip(asc.padTo(by.size, true)), limit = limit)

      case SemiJoin(l, r, on, neq, negated) =>
        // Correlate by giving the joined right-side columns the same vars.
        val ((pl, lv, lVarOf), (pr, rv, rVarOf)) = readJoin(l, r, on)
        val neqPreds = neq.map { case (opS, lc, rc) =>
          PredAtom(TBin(opS, TVar(lVarOf(lc)), TVar(rVarOf(rc)))) }
        emit(pl.schema.zip(lv.map(TVar(_): Term)),
             Vector(RelAtom(pl.rel, lv), ExistsAtom(RelAtom(pr.rel, rv) +: neqPreds, negated)))

      case Pivot(in, index, columns, values, distinctVals) =>
        val (p, vs, varOf) = read(in)
        val (cv, vv) = (varOf(columns), varOf(values))
        val assigns = distinctVals.map { d =>
          d.toString -> AssignAtom(ng.fresh("pv"),
            TAgg("sum", TIf(TBin("=", TVar(cv), TConst(d)), TVar(vv), TConst(0.0))))
        }
        emit((index -> (TVar(varOf(index)): Term)) +: assigns.map { case (n, a) => n -> (TVar(a.v): Term) },
             RelAtom(p.rel, vs) +: assigns.map(_._2), group = Vector(varOf(index)))

      case AlignJoin(l, r) =>
        // §III-C implicit join: UID both sides, join on the id (which the
        // optimizer can later eliminate as a unique-key self-join).
        def withUid(in: POp): Val = {
          val (p, vs, _) = read(in); val idv = ng.fresh("id")
          emit(("uid__" -> (TVar(idv): Term)) +: p.schema.zip(vs.map(TVar(_): Term)),
               Vector(RelAtom(p.rel, vs), AssignAtom(idv, TExt("uid", vs.map(TVar(_))))))
        }
        val (pl, pr) = (withUid(l), withUid(r))
        val id = ng.fresh("id")
        val lv = freshVars(pl.schema.tail); val rv = freshVars(pr.schema.tail)
        emit(pl.schema.tail.zip(lv.map(TVar(_): Term)) ++ pr.schema.tail.zip(rv.map(TVar(_): Term)),
             Vector(RelAtom(pl.rel, id +: lv), RelAtom(pr.rel, id +: rv)))

      case ToMatrix(in, cols) =>
        val (p, vs, varOf) = read(in)
        val idv = ng.fresh("id")
        val uid = AssignAtom(idv, TExt("uid", cols.map(c => TVar(varOf(c)))))
        val out = ("id" -> (TVar(idv): Term)) +:
          cols.zipWithIndex.map { case (c, i) => s"c$i" -> (TVar(varOf(c)): Term) }
        emit(out, Vector(RelAtom(p.rel, vs), uid))

      case EinsumOp(spec, operands) =>
        // An operand's value columns follow its `id`; a scalar `(c0)` has none.
        val lo = Einsum.lowerDense(spec, operands.map(go).map(o => Einsum.DenseOp(o.rel, o.schema.size - 1)), ng)
        rules ++= lo.rules
        Val(lo.result, lo.rules.last.head.colNames)
    })

    val res = go(root.op)
    // The result must be the program's final rule (programSql invariant).
    if (!rules.lastOption.exists(_.head.rel == res.rel)) {
      val (_, vs, _) = read(root.op)
      emit(res.schema.zip(vs.map(TVar(_): Term)), Vector(RelAtom(res.rel, vs)))
    }
    Program(rules.toVector, rules.last.head.rel)
  }
}
