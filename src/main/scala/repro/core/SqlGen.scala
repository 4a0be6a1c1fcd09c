package repro.core

import TondIR._

/** TondIR → SQL code generation (§III-E).
  *
  * Each rule becomes a Common Table Expression; the final rule becomes the
  * top-level SELECT so its ORDER BY / LIMIT survive (CTEs do not preserve
  * order). Joins are emitted as an explicit JOIN chain derived from
  * Datalog-style variable unification; `exists` atoms become (NOT) EXISTS
  * subqueries, emitted by the same body function as the rule itself, so
  * they nest to any depth and may refer to variables of any enclosing
  * level; UID() becomes a ROW_NUMBER window (0-based).
  *
  * Backend adaptation (§III-E) is confined to [[SqlDialect]]: the only
  * engine-visible differences we need are inline VALUES relations and
  * integer-division spelling.
  */
object SqlGen {

  sealed trait SqlDialect {
    def name: String
    /** Render an inline constant relation with the given alias and columns. */
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String
  }

  case object DuckDialect extends SqlDialect {
    val name = "duckdb"
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String =
      s"(VALUES ${rows.map(r => r.map(c => const(c.v)).mkString("(", ", ", ")")).mkString(", ")}) " +
        s"AS $alias(${cols.mkString(", ")})"
  }

  case object SparkDialect extends SqlDialect {
    val name = "spark"
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

  private val binOps = Map(
    "+" -> "+", "-" -> "-", "*" -> "*", "/" -> "/", "%" -> "%",
    "=" -> "=", "<>" -> "<>", "<" -> "<", "<=" -> "<=", ">" -> ">", ">=" -> ">=",
    "and" -> "AND", "or" -> "OR", "like" -> "LIKE", "notlike" -> "NOT LIKE")

  /** Render a term to SQL. `env` resolves a variable to a column reference or
    * an inlined expression; aggregation arguments are rendered recursively. */
  private def term(t: Term, env: String => String): String = t match {
    case TVar(v)       => env(v)
    case TConst(v)     => const(v)
    case TAgg("count", TConst(_), false) => "COUNT(*)"
    case TAgg(f, a, d) => s"${f.toUpperCase}(${if (d) "DISTINCT " else ""}${term(a, env)})"
    case TIf(c, a, b)  => s"CASE WHEN ${term(c, env)} THEN ${term(a, env)} ELSE ${term(b, env)} END"
    case TBin("in", l, TExt("list", vals)) =>
      s"${term(l, env)} IN (${vals.map(term(_, env)).mkString(", ")})"
    case TBin(op, l, r) =>
      s"(${term(l, env)} ${binOps.getOrElse(op, sys.error(s"sqlgen: op $op"))} ${term(r, env)})"
    case TExt("uid", args) =>
      val ob = if (args.isEmpty) "(SELECT 1)" else args.map(term(_, env)).mkString(", ")
      s"(ROW_NUMBER() OVER (ORDER BY $ob) - 1)"
    case TExt("year", Seq(x))   => s"YEAR(${term(x, env)})"
    case TExt("substr", Seq(x, f, l)) => s"SUBSTR(${term(x, env)}, ${term(f, env)}, ${term(l, env)})"
    case TExt("round", Seq(x, n)) => s"ROUND(${term(x, env)}, ${term(n, env)})"
    case TExt("neg", Seq(x))    => s"(-${term(x, env)})"
    case TExt("length", Seq(x)) => s"LENGTH(${term(x, env)})"
    case TExt(f, _)             => sys.error(s"sqlgen: unknown external $f")
  }

  /** Column names of a relation: from earlier rule heads, else the catalog. */
  private def schemaOf(rel: String, p: Program, cat: Catalog): Vector[String] =
    p.defining(rel).map(_.head.colNames).getOrElse(cat.schema(rel))

  private def ruleSql(rule: Rule, p: Program, cat: Catalog, d: SqlDialect): String = {
    var aliasN = 0
    def nextAlias(): String = { aliasN += 1; s"t$aliasN" }

    /** One body level → (FROM chain, WHERE conditions, resolve): a variable
      * resolves to its column here, else to its assignment, else through
      * `outer`. One bound here and by an enclosing level correlates by
      * equality; an `exists` atom becomes a subquery over the same function. */
    def body(scope: Scope, outer: String => String): (String, Vector[String], String => String) = {
      val bound = scala.collection.mutable.Map[String, String]() // var → column reference
      def resolve(v: String): String = bound.getOrElse(v, scope.assignOf.get(v).fold(outer(v))(t => s"(${term(t, resolve)})"))
      val where = scala.collection.mutable.ArrayBuffer[String]()
      val correlations = scala.collection.mutable.ArrayBuffer[String]()
      /** Bind; returns the join equality if the var was already bound here. */
      def bind(v: String, colRef: String): Option[String] = bound.get(v) match {
        case Some(prev) => Some(s"$prev = $colRef")
        case None =>
          if (scope.outer.exists(_.sees(v))) correlations += s"${outer(v)} = $colRef"
          bound(v) = colRef; None
      }
      val fromItems = scope.atoms.collect { case r: RelAtom => Left(r); case c: ConstAtom => Right(c) }
      require(fromItems.nonEmpty, s"body with empty FROM: ${scope.atoms.map(show).mkString(", ")}")
      val sb = new StringBuilder
      fromItems.zipWithIndex.foreach { case (item, i) =>
        val alias = nextAlias()
        val (src, vars, outerOn) = item match {
          case Left(r)  => (s"${r.rel} AS $alias", r.vars, r.outerOn)
          case Right(c) => (d.valuesRel(c.rows, alias, c.vars.map(v => s"c_$v")), c.vars, None)
        }
        val colOf: Int => String = item match {
          case Left(r)  => val sc = schemaOf(r.rel, p, cat); k => s"$alias.${sc(k)}"
          case Right(c) => k => s"$alias.c_${c.vars(k)}"
        }
        if (i == 0) { sb ++= src; vars.zipWithIndex.foreach { case (v, k) => where ++= bind(v, colOf(k)) } }
        else {
          val conds = vars.zipWithIndex.flatMap { case (v, k) => bind(v, colOf(k)) }
          outerOn match {
            case Some((kind, on)) =>
              val kw = kind match { case "left" => "LEFT JOIN"; case "right" => "RIGHT JOIN"
                                    case "full" => "FULL JOIN"; case k => sys.error(s"outer $k") }
              val onSql = (conds :+ term(on, resolve)).mkString(" AND ")
              sb ++= s"\n  $kw $src ON $onSql"
            case None if conds.nonEmpty => sb ++= s"\n  JOIN $src ON ${conds.mkString(" AND ")}"
            case None                   => sb ++= s"\n  CROSS JOIN $src"
          }
        }
      }
      where ++= correlations
      where ++= scope.atoms.collect { case PredAtom(t) => term(t, resolve) }
      where ++= scope.atoms.collect { case e @ ExistsAtom(_, neg) =>
        val (from, conds, _) = body(scope.sub(e), resolve)
        val whereSql = if (conds.nonEmpty) s" WHERE ${conds.mkString(" AND ")}" else ""
        s"${if (neg) "NOT " else ""}EXISTS (SELECT 1 FROM $from$whereSql)"
      }
      (sb.toString, where.toVector, resolve)
    }

    // Aggregate predicates are the rule's HAVING; the rest of the body is FROM/WHERE.
    val (having, rest) = rule.body.partition { case PredAtom(t) => t.hasAgg; case _ => false }
    val (fromSql, whereAll, resolve) = body(new Scope(rest), v => sys.error(s"sqlgen: unbound var $v"))
    val selCols = rule.head.cols.map { case (n, t) => s"${term(t, resolve)} AS $n" }
    val groupBy = rule.head.group.map(resolve)

    val q = new StringBuilder
    q ++= s"SELECT ${if (rule.head.distinct) "DISTINCT " else ""}${selCols.mkString(", ")}"
    q ++= s"\nFROM $fromSql"
    if (whereAll.nonEmpty) q ++= s"\nWHERE ${whereAll.mkString("\n  AND ")}"
    if (groupBy.nonEmpty) q ++= s"\nGROUP BY ${groupBy.mkString(", ")}"
    if (having.nonEmpty) q ++= s"\nHAVING ${having.collect { case PredAtom(t) => term(t, resolve) }.mkString(" AND ")}"
    if (rule.head.sort.nonEmpty)
      q ++= s"\nORDER BY ${rule.head.sort.map { case (c, asc) => s"$c${if (asc) "" else " DESC"}" }.mkString(", ")}"
    rule.head.limit.foreach(n => q ++= s"\nLIMIT $n")
    q.toString
  }

  /** Full program → one SQL statement: CTE chain + final SELECT. */
  def programSql(p: Program, cat: Catalog, d: SqlDialect): String = {
    require(p.rules.nonEmpty, "empty program")
    val last = p.rules.last
    require(last.head.rel == p.result,
      s"result ${p.result} must be the last rule (got ${last.head.rel})")
    val ctes = p.rules.init.map { r =>
      s"${r.head.rel}(${r.head.colNames.mkString(", ")}) AS (\n${indent(ruleSql(r, p, cat, d))}\n)"
    }
    val finalSql = ruleSql(last, p, cat, d)
    if (ctes.isEmpty) finalSql else s"WITH ${ctes.mkString(",\n")}\n$finalSql"
  }

  private def indent(s: String): String = s.linesIterator.map("  " + _).mkString("\n")
}
