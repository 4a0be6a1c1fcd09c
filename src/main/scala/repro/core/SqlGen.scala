package repro.core

import scala.collection.mutable
import TondIR._

/** TondIR → SQL code generation (§III-E).
  *
  * Each rule becomes a Common Table Expression; the final rule becomes the
  * top-level SELECT so its ORDER BY / LIMIT survive (CTEs do not preserve
  * order). Joins are emitted as an explicit JOIN chain derived from
  * Datalog-style variable unification; `exists` atoms become subqueries,
  * emitted by the same body class (`Level`) as the rule itself, so they nest
  * to any depth and may refer to variables of any enclosing level; UID()
  * becomes a ROW_NUMBER window (0-based). The statement is written into one
  * buffer, and a column reference is written only where a variable is used.
  *
  * A positive `exists` whose body correlates only through one key variable
  * ([[TondIR.Scope.semiJoinKey]]) becomes `<outer ref> IN (SELECT <key
  * column> FROM … WHERE …)`, as hand-written SQL spells a semi-join: an
  * engine plans an uncorrelated `IN` directly, where a correlated `EXISTS`
  * must first be unnested. Every other `exists` stays `[NOT] EXISTS`: a
  * negated one, because `NOT IN` is not NULL-safe; one with two or more
  * keys, because DuckDB 1.0.0 rejects a row-valued `IN` subquery ("Subquery
  * returns 2 columns - expected 1"); and one with a correlated
  * non-equality, such as Q21's `<>`. Both dialects use the same form.
  *
  * Backend adaptation (§III-E) is confined to [[SqlDialect]]: the only
  * engine-visible difference we need is how an inline VALUES relation is
  * spelled.
  */
object SqlGen {

  sealed trait SqlDialect {
    /** Render an inline constant relation with the given alias and columns. */
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String
  }

  case object DuckDialect extends SqlDialect {
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String =
      s"(VALUES ${rows.map(r => r.map(c => const(c.v)).mkString("(", ", ", ")")).mkString(", ")}) " +
        s"AS $alias(${cols.mkString(", ")})"
  }

  case object SparkDialect extends SqlDialect {
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String =
      s"(SELECT * FROM VALUES ${rows.map(r => r.map(c => const(c.v)).mkString("(", ", ", ")")).mkString(", ")} " +
        s"AS inline_(${cols.mkString(", ")})) AS $alias"
  }

  private def const(v: Any): String = v match {
    case null                     => "NULL"
    case s: String                => "'" + s.replace("'", "''") + "'"
    case d: java.time.LocalDate   => s"DATE '$d'"
    case b: Boolean               => if (b) "TRUE" else "FALSE"
    case x                        => String.valueOf(x)
  }

  /** The buffer a statement is written into. */
  private type Sql = java.lang.StringBuilder

  private val binOps = Map(
    "+" -> "+", "-" -> "-", "*" -> "*", "/" -> "/", "%" -> "%",
    "=" -> "=", "<>" -> "<>", "<" -> "<", "<=" -> "<=", ">" -> ">", ">=" -> ">=",
    "and" -> "AND", "or" -> "OR", "like" -> "LIKE", "notlike" -> "NOT LIKE")

  /** Writes the rules of one program. A rule's FROM items get the aliases
    * t1, t2, … in the order they are written, the items of `exists` bodies
    * after those of their enclosing level. */
  private final class Emitter(p: Program, cat: Catalog, d: SqlDialect) {
    private var aliasN = 0
    private val schemas = mutable.HashMap[String, Vector[String]]()

    /** Column names of a relation: from its defining rule's head, else the catalog. */
    private def schemaOf(rel: String): Vector[String] =
      schemas.getOrElseUpdate(rel, p.defining(rel).fold(cat.schema(rel))(_.head.colNames))

    /** One body level's FROM chain and the conditions its bindings imply. A
      * variable resolves to the column of its first relation or VALUES
      * binding here, else to its assignment here, else through `outer`. A
      * variable bound again here is joined by equality (in the ON clause, or
      * in WHERE within the first item); one bound here and seen by an
      * enclosing level correlates by equality, except `key`, the key of an
      * `IN` subquery, which its SELECT list writes. `nl` starts a new line. */
    final class Level(scope: Scope, outer: Option[Level], nl: String, key: Option[String] = None) {
      private val items = scope.atoms.filter(a => a.isInstanceOf[RelAtom] || a.isInstanceOf[ConstAtom])
      require(items.nonEmpty, s"body with empty FROM: ${scope.atoms.map(show).mkString(", ")}")
      private val aliases = items.map { _ => aliasN += 1; s"t$aliasN" }
      // Each item's variables and the names of the columns they bind.
      private val (vars, cols) = items.map {
        case r: RelAtom => (r.vars, schemaOf(r.rel))
        case a          => val vs = a.asInstanceOf[ConstAtom].vars; (vs, vs.map("c_" + _))
      }.unzip
      private val bound = mutable.HashMap[String, Int]() // var → index of the item binding it first
      private var dups: List[String] = Nil              // repeats within the first item, reversed
      private var correlations: List[String] = Nil      // reversed

      /** Item `i`'s column `k`. */
      private def col(i: Int, k: Int, out: Sql): Unit = out.append(aliases(i)).append('.').append(cols(i)(k))

      /** Write the column reference or inlined expression `v` resolves to. */
      def ref(v: String, out: Sql): Unit = bound.getOrElse(v, -1) match {
        case -1 => scope.assignOf.get(v) match {
          case Some(t) => out.append('('); term(t, this, out); out.append(')')
          case None    => outer.fold(sys.error(s"sqlgen: unbound var $v"))(_.ref(v, out))
        }
        case i =>
          var k = 0
          while (vars(i)(k) != v) k += 1
          col(i, k, out)
      }

      /** Bind item `i`'s column `k`; if its var was bound here before, write
        * the join equality to `on` and return true. */
      private def bind(i: Int, k: Int, on: Sql): Boolean = {
        val v = vars(i)(k)
        if (bound.contains(v)) { ref(v, on); on.append(" = "); col(i, k, on); true }
        else {
          if (!key.contains(v) && scope.outer.exists(_.sees(v))) {
            val c = new Sql
            outer.foreach(_.ref(v, c)); c.append(" = "); col(i, k, c)
            correlations ::= c.toString
          }
          bound(v) = i
          false
        }
      }

      /** The FROM chain: the first item, then one JOIN, outer JOIN or CROSS JOIN per further item. */
      val from: Sql = new Sql
      for (i <- items.indices) {
        val src = items(i) match {
          case c: ConstAtom => d.valuesRel(c.rows, aliases(i), cols(i))
          case a            => s"${a.asInstanceOf[RelAtom].rel} AS ${aliases(i)}"
        }
        val on = new Sql
        if (i == 0) {
          from.append(src)
          for (k <- vars(i).indices) if (bind(i, k, on)) { dups ::= on.toString; on.setLength(0) }
        } else {
          for (k <- vars(i).indices) { val at = on.length; if (at > 0) on.append(" AND "); if (!bind(i, k, on)) on.setLength(at) }
          items(i) match {
            case RelAtom(_, _, Some((kind, cond))) =>
              val kw = kind match { case "left" => "LEFT JOIN"; case "right" => "RIGHT JOIN"
                                    case "full" => "FULL JOIN"; case k => sys.error(s"outer $k") }
              if (on.length > 0) on.append(" AND ")
              term(cond, this, on)
              from.append(nl).append("  ").append(kw).append(' ').append(src).append(" ON ").append(on)
            case _ if on.length > 0 => from.append(nl).append("  JOIN ").append(src).append(" ON ").append(on)
            case _                  => from.append(nl).append("  CROSS JOIN ").append(src)
          }
        }
      }

      /** Write the WHERE conditions, `kw` before the first and `sep` between
        * them: the join equalities, the correlations, the predicates, then
        * each `exists` atom as an `IN` or `[NOT] EXISTS` subquery. */
      def where(out: Sql, kw: String, sep: String): Unit = {
        var first = true
        def next(): Unit = { out.append(if (first) kw else sep); first = false }
        dups.reverseIterator.foreach { c => next(); out.append(c) }
        correlations.reverseIterator.foreach { c => next(); out.append(c) }
        scope.atoms.foreach { case PredAtom(t) => next(); term(t, this, out); case _ => }
        scope.atoms.foreach {
          case e @ ExistsAtom(_, neg) =>
            next()
            val s = scope.sub(e)
            val k = if (neg) None else s.semiJoinKey
            val sub = new Level(s, Some(this), nl, k)
            k match {
              case Some(v) => ref(v, out); out.append(" IN (SELECT "); sub.ref(v, out); out.append(" FROM ")
              case None    => out.append(if (neg) "NOT EXISTS (SELECT 1 FROM " else "EXISTS (SELECT 1 FROM ")
            }
            out.append(sub.from)
            sub.where(out, " WHERE ", " AND ")
            out.append(')')
          case _ =>
        }
      }
    }

    /** Write term `t` as resolved at `lv`. */
    def term(t: Term, lv: Level, out: Sql): Unit = {
      def go(t: Term): Unit = t match {
        case TVar(v)       => lv.ref(v, out)
        case TConst(v)     => out.append(const(v))
        case TAgg("count", TConst(_), false) => out.append("COUNT(*)")
        case TAgg(f, a, dist) => out.append(f.toUpperCase).append('('); if (dist) out.append("DISTINCT "); go(a); out.append(')')
        case TIf(c, a, b)  => out.append("CASE WHEN "); go(c); out.append(" THEN "); go(a); out.append(" ELSE "); go(b); out.append(" END")
        case TBin("in", l, TExt("list", vals)) =>
          go(l); out.append(" IN ("); list(vals); out.append(')')
        case TBin(op, l, r) =>
          out.append('('); go(l); out.append(' ').append(binOps.getOrElse(op, sys.error(s"sqlgen: op $op"))).append(' '); go(r); out.append(')')
        case TExt("uid", args) =>
          out.append("(ROW_NUMBER() OVER (ORDER BY ")
          if (args.isEmpty) out.append("(SELECT 1)") else list(args)
          out.append(") - 1)")
        case TExt("year", Seq(x))              => out.append("YEAR("); go(x); out.append(')')
        case TExt("substr", as @ Seq(_, _, _)) => out.append("SUBSTR("); list(as); out.append(')')
        case TExt("round", as @ Seq(_, _))     => out.append("ROUND("); list(as); out.append(')')
        case TExt("neg", Seq(x))               => out.append("(-"); go(x); out.append(')')
        case TExt("length", Seq(x))            => out.append("LENGTH("); go(x); out.append(')')
        case TExt(f, _)                        => sys.error(s"sqlgen: unknown external $f")
      }
      def list(ts: Seq[Term]): Unit = ts.indices.foreach { i => if (i > 0) out.append(", "); go(ts(i)) }
      go(t)
    }

    /** Write `rule` as one SELECT, `nl` starting each new line. */
    def rule(rule: Rule, out: Sql, nl: String): Unit = {
      aliasN = 0
      // Aggregate predicates are the rule's HAVING; the rest of the body is FROM/WHERE.
      val isHaving: Atom => Boolean = { case PredAtom(t) => t.hasAgg; case _ => false }
      val (having, rest) = if (rule.body.exists(isHaving)) rule.body.partition(isHaving) else (Vector.empty, rule.body)
      val lv = new Level(new Scope(rest), None, nl)
      val h = rule.head
      out.append("SELECT ")
      if (h.distinct) out.append("DISTINCT ")
      h.cols.indices.foreach { i => if (i > 0) out.append(", "); term(h.cols(i)._2, lv, out); out.append(" AS ").append(h.cols(i)._1) }
      out.append(nl).append("FROM ").append(lv.from)
      lv.where(out, nl + "WHERE ", nl + "  AND ")
      if (h.group.nonEmpty) {
        out.append(nl).append("GROUP BY ")
        h.group.indices.foreach { i => if (i > 0) out.append(", "); lv.ref(h.group(i), out) }
      }
      if (having.nonEmpty) {
        out.append(nl).append("HAVING ")
        having.indices.foreach { i => if (i > 0) out.append(" AND "); having(i) match { case PredAtom(t) => term(t, lv, out); case _ => } }
      }
      if (h.sort.nonEmpty) {
        out.append(nl).append("ORDER BY ")
        h.sort.indices.foreach { i => if (i > 0) out.append(", "); out.append(h.sort(i)._1); if (!h.sort(i)._2) out.append(" DESC") }
      }
      h.limit.foreach(n => out.append(nl).append("LIMIT ").append(n))
    }
  }

  /** Full program → one SQL statement: CTE chain + final SELECT, each CTE's
    * body indented by two spaces. */
  def programSql(p: Program, cat: Catalog, d: SqlDialect): String = {
    require(p.rules.nonEmpty, "empty program")
    val last = p.rules.last
    require(last.head.rel == p.result,
      s"result ${p.result} must be the last rule (got ${last.head.rel})")
    val e = new Emitter(p, cat, d)
    val out = new Sql(1024)
    for (i <- 0 until p.rules.size - 1) {
      val h = p.rules(i).head
      out.append(if (i == 0) "WITH " else ",\n").append(h.rel).append('(')
      h.cols.indices.foreach { k => if (k > 0) out.append(", "); out.append(h.cols(k)._1) }
      out.append(") AS (\n  ")
      e.rule(p.rules(i), out, "\n  ")
      out.append("\n)")
    }
    if (p.rules.size > 1) out.append('\n')
    e.rule(last, out, "\n")
    out.toString
  }
}
