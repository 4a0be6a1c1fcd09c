package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{EnginePath, InputSet, Prog, SparkSpec, TestData}
import repro.TestData.{duckSql, miniPandas, sparkGen}
import repro.frontend.Dsl
import TondIR._

/** Feature-level tests of both body emitters over tiny inline tables: each
  * program runs through `TestData`'s paths as SqlGen's DuckDB SQL and as
  * SparkGen's Catalyst plan, and both answers are checked against the same
  * expected SQL on DuckDB (§III-E: CTE chaining, sort/limit placement, UID
  * windows, VALUES relations, exists at any depth and the semi-joins written
  * as `IN`, outer joins, NULL join keys, dialect quirks). The last tests
  * check the answer check itself. */
class SqlGenSpec extends SparkSpec {

  private val cat = Catalog.empty
    .withTable("t", Vector("k", "s", "x"), unique = Set("k"))
    .withTable("u", Vector("k", "y"))
    .withTable("n", Vector("k", "x"))
    .withTable("w", Vector("k", "s", "z"))

  private lazy val in = new InputSet(Map(
    "t" -> table(Seq("k" -> LongType, "s" -> StringType, "x" -> DoubleType),
                 Seq(Row(1L, "a", 10.0), Row(2L, "b", 20.0), Row(3L, "a", 30.0), Row(4L, "c", 40.0))),
    "u" -> table(Seq("k" -> LongType, "y" -> DoubleType),
                 Seq(Row(1L, 1.5), Row(1L, 2.5), Row(3L, 3.5), Row(9L, 9.9))),
    // NULL join keys on either side of a join
    "n" -> table(Seq("k" -> LongType, "x" -> DoubleType), Seq(Row(1L, 10.0), Row(null, 20.0), Row(2L, 30.0))),
    "w" -> table(Seq("k" -> LongType, "s" -> StringType, "z" -> DoubleType),
                 Seq(Row(1L, "a", 1.0), Row(null, "a", 2.0), Row(3L, "b", 3.0)))))

  private def table(cols: Seq[(String, DataType)], rows: Seq[Row]) =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1),
      StructType(cols.map { case (n, t) => StructField(n, t) }))

  /** Check `p` at each of `levels` on SqlGen's DuckDB SQL and SparkGen's plan against `expected`. */
  private def run(p: Program, expected: String, levels: Seq[Int] = Seq(0)): Unit =
    for (path <- Seq(duckSql, sparkGen); level <- levels) path.check(Prog("ir", cat, Left(p), expected), level, in)

  /** Check the DSL program `df` on DuckDB SQL at O0–O4 and on MiniPandas. */
  private def runDsl(df: Dsl.Df, expected: String): Unit =
    TestData.check(Prog("dsl", cat, Right(df), expected), in, Seq(duckSql, miniPandas))

  /** Check `src` on every path of `TestData.paths` (MiniPandas for a DSL
    * program only) against `expected`, and assert that its DuckDB SQL at
    * each of O0–O4 writes `ins` subqueries as `IN` and `exists` as `[NOT] EXISTS`. */
  private def runSemi(src: Either[Program, Dsl.Df], expected: String, ins: Int, exists: Int): Unit = {
    val p = Prog("semi", cat, src, expected)
    def count(sql: String, s: String) = sql.split(java.util.regex.Pattern.quote(s), -1).length - 1
    for (l <- 0 to 4) {
      val sql = SqlGen.programSql(p.compile(l), cat, SqlGen.DuckDialect)
      assert(count(sql, " IN (SELECT ") == ins && count(sql, "EXISTS (SELECT 1 ") == exists, s"O$l:\n$sql")
    }
    TestData.check(p, in, TestData.paths.filter(path => path != miniPandas || src.isRight))
  }

  private def v(n: String) = TVar(n)

  private val filterDouble = Program(Vector(Rule(Head("r", Vector("k" -> v("k"), "d" -> v("d"))),
    Vector(RelAtom("t", Vector("k", "s", "x")),
           PredAtom(TBin(">", v("x"), TConst(15.0))),
           AssignAtom("d", TBin("*", v("x"), TConst(2.0)))))), "r")

  test("single rule: filter + computed column") {
    run(filterDouble, "SELECT k, x*2 AS d FROM t WHERE x > 15")
  }

  test("CTE chain: each non-final rule becomes a WITH clause") {
    val r1 = Rule(Head("f", Vector("k" -> v("k"), "x" -> v("x"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), PredAtom(TBin(">", v("x"), TConst(10.0)))))
    val r2 = Rule(Head("g", Vector("n" -> v("n"))),
      Vector(RelAtom("f", Vector("k2", "x2")), AssignAtom("n", TAgg("count", TConst(1L)))))
    val sql = SqlGen.programSql(Program(Vector(r1, r2), "g"), cat, SqlGen.DuckDialect)
    assert(sql.startsWith("WITH f(k, x) AS"))
    run(Program(Vector(r1, r2), "g"), "SELECT COUNT(*) AS n FROM t WHERE x > 10")
  }

  test("join via repeated variable becomes JOIN ... ON") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "y" -> v("y"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), RelAtom("u", Vector("k", "y"))))
    val sql = SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.DuckDialect)
    assert(sql.contains("JOIN u AS t2 ON"))
    run(Program(Vector(r), "r"), "SELECT t.k AS k, y FROM t JOIN u ON t.k = u.k")
  }

  test("group + having (aggregate predicate)") {
    val r = Rule(Head("r", Vector("s" -> v("s"), "tot" -> v("tot")), group = Vector("s")),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             AssignAtom("tot", TAgg("sum", v("x"))),
             PredAtom(TBin(">", TAgg("sum", v("x")), TConst(15.0)))))
    run(Program(Vector(r), "r"),
      "SELECT s, SUM(x) AS tot FROM t GROUP BY s HAVING SUM(x) > 15")
  }

  private val top2 = Program(Vector(Rule(Head("r", Vector("k" -> v("k"), "x" -> v("x")),
                                              sort = Vector(("x", false)), limit = Some(2)),
    Vector(RelAtom("t", Vector("k", "s", "x"))))), "r")

  test("sort + limit live in the final SELECT (not a CTE)") {
    run(top2, "SELECT k, x FROM t ORDER BY x DESC LIMIT 2")
  }

  test("distinct head flag") {
    val r = Rule(Head("r", Vector("s" -> v("s")), distinct = true),
      Vector(RelAtom("t", Vector("k", "s", "x"))))
    run(Program(Vector(r), "r"), "SELECT DISTINCT s FROM t")
  }

  test("a single-key exists becomes IN (SELECT …) (O0–O4)") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("u", Vector("k", "y")),
                               PredAtom(TBin(">", v("y"), TConst(2.0)))))))
    runSemi(Left(Program(Vector(r), "r")),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND y > 2)", ins = 1, exists = 0)
  }

  test("not exists becomes NOT EXISTS") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("u", Vector("k", "y"))), negated = true)))
    run(Program(Vector(r), "r"),
      "SELECT k FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.k)")
  }

  test("outer_left marker becomes LEFT JOIN with ON clause") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "y" -> v("y"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             RelAtom("u", Vector("k2", "y"), Some(("left", TBin("=", v("k"), v("k2")))))))
    run(Program(Vector(r), "r"),
      "SELECT t.k AS k, y FROM t LEFT JOIN u ON t.k = u.k")
  }

  test("constant relation renders as an inline VALUES table") {
    val r = Rule(Head("r", Vector("i" -> v("i"), "k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ConstAtom(Vector("i"), Vector(Vector(TConst(0L)), Vector(TConst(1L))))))
    run(Program(Vector(r), "r"),
      "SELECT i, k FROM t CROSS JOIN (VALUES (0),(1)) vals(i)")
  }

  test("UID renders as a 0-based row_number window") {
    val r = Rule(Head("r", Vector("id" -> v("id"), "k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             AssignAtom("id", TExt("uid", Seq(v("k"))))))
    run(Program(Vector(r), "r"),
      "SELECT ROW_NUMBER() OVER (ORDER BY k) - 1 AS id, k FROM t")
  }

  test("like / not-like / in-list / if render correctly") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "f" -> v("f"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             PredAtom(TBin("like", v("s"), TConst("%a%"))),
             PredAtom(TBin("in", v("k"), TExt("list", Seq(TConst(1L), TConst(3L))))),
             AssignAtom("f", TIf(TBin(">", v("x"), TConst(15.0)), TConst("hi"), TConst("lo")))))
    run(Program(Vector(r), "r"),
      "SELECT k, CASE WHEN x > 15 THEN 'hi' ELSE 'lo' END AS f FROM t " +
      "WHERE s LIKE '%a%' AND k IN (1, 3)")
  }

  test("string constants are escaped") {
    val r = Rule(Head("r", Vector("c" -> v("c"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), AssignAtom("c", TConst("it's"))))
    run(Program(Vector(r), "r"), "SELECT 'it''s' AS c FROM t")
  }

  test("result relation must be the last rule") {
    val r = Rule(Head("r", Vector("k" -> v("k"))), Vector(RelAtom("t", Vector("k", "s", "x"))))
    intercept[IllegalArgumentException] {
      SqlGen.programSql(Program(Vector(r), "other"), cat, SqlGen.DuckDialect)
    }
  }

  test("both dialects emit identical SQL apart from VALUES relations") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), PredAtom(TBin(">", v("x"), TConst(10.0)))))
    val d = SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.DuckDialect)
    val s = SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.SparkDialect)
    assert(d == s)
  }

  // ------------------------------------------------- exists at any depth
  private val tk = RelAtom("t", Vector("k", "s", "x"))
  private def existsRule(atoms: Atom*) = Program(Vector(Rule(Head("r", Vector("k" -> v("k"))), tk +: atoms.toVector)), "r")

  for (neg <- Seq(false, true)) {
    val not = if (neg) "NOT " else ""
    test(s"${not.toLowerCase}exists inside exists (TPC-H Q20's shape)") {
      // r(k) :- t(k, s, x), exists(u(k, y), [not] exists(u(j, y), (j > 2))). Positive, it is
      // IN nested in IN, and u's rows k = 3 and 9 qualify, so the answer is not empty.
      val inner = ExistsAtom(Vector(RelAtom("u", Vector("j", "y")), PredAtom(TBin(">", v("j"), TConst(2L)))), neg)
      runSemi(Left(existsRule(ExistsAtom(Vector(RelAtom("u", Vector("k", "y")), inner)))),
        "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND " +
        s"${not}EXISTS (SELECT 1 FROM u u2 WHERE u2.y = u.y AND u2.k > 2))",
        ins = if (neg) 1 else 2, exists = if (neg) 1 else 0)
    }
  }

  test("assignment inside exists, with a predicate over it") {
    run(existsRule(ExistsAtom(Vector(RelAtom("u", Vector("k", "y")),
                                     AssignAtom("z", TBin("*", v("y"), TConst(2.0))),
                                     PredAtom(TBin(">", v("z"), TConst(6.0)))))),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND y * 2 > 6)")
  }

  test("constant relation inside exists") {
    run(existsRule(ExistsAtom(Vector(RelAtom("u", Vector("k", "y")),
                                     ConstAtom(Vector("lim"), Vector(Vector(TConst(3.0)))),
                                     PredAtom(TBin(">", v("y"), v("lim")))))),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND y > 3)")
    run(existsRule(ExistsAtom(Vector(ConstAtom(Vector("k"), Vector(Vector(TConst(1L)), Vector(TConst(4L))))))),
      "SELECT k FROM t WHERE k IN (1, 4)")
  }

  test("two exists atoms in one rule, one of them the same instance twice") {
    val e = ExistsAtom(Vector(RelAtom("u", Vector("k", "y")), PredAtom(TBin(">", v("y"), TConst(2.0)))))
    val n = ExistsAtom(Vector(RelAtom("u", Vector("k", "y")), PredAtom(TBin(">", v("y"), TConst(3.0)))), negated = true)
    run(existsRule(e, e, n),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND y > 2) " +
      "AND NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND y > 3)")
  }

  test("join on a computed column survives O4 inlining") {
    // P(k2 = k + 1) :- t(k, s, x).   r(k2, y) :- P(k2), u(k2, y).
    val p = Program(Vector(
      Rule(Head("P", Vector("k2" -> TBin("+", v("k"), TConst(1L)))), Vector(tk)),
      Rule(Head("r", Vector("k2" -> v("k2"), "y" -> v("y"))),
           Vector(RelAtom("P", Vector("k2")), RelAtom("u", Vector("k2", "y"))))), "r")
    run(p, "SELECT t.k + 1 AS k2, y FROM t JOIN u ON t.k + 1 = u.k", Seq(0, 4))
  }

  test("a join with a VALUES relation survives global DCE at O0–O4") {
    // P(k, s) :- t(k, s, x).   r(k2) :- P(k2, s2), <s2>=[("a")].
    val p = Program(Vector(
      Rule(Head("P", Vector("k" -> v("k"), "s" -> v("s"))), Vector(tk)),
      Rule(Head("r", Vector("k2" -> v("k2"))),
           Vector(RelAtom("P", Vector("k2", "s2")), ConstAtom(Vector("s2"), Vector(Vector(TConst("a"))))))), "r")
    run(p, "SELECT k AS k2 FROM t WHERE s = 'a'", 0 to 4)
  }

  test("a VALUES relation of two rows repeats each row at O0–O4") {
    // P(k, c) :- t(k, s, x), <c>=[(1),(2)].   r(k2, n) group(k2) :- P(k2, c2), (n = count(1)).
    // k is unique in t but not in P, so the grouping must stay.
    val p = Program(Vector(
      Rule(Head("P", Vector("k" -> v("k"), "c" -> v("c"))),
           Vector(tk, ConstAtom(Vector("c"), Vector(Vector(TConst(1L)), Vector(TConst(2L)))))),
      Rule(Head("r", Vector("k2" -> v("k2"), "n" -> v("n")), group = Vector("k2")),
           Vector(RelAtom("P", Vector("k2", "c2")), AssignAtom("n", TAgg("count", TConst(1L)))))), "r")
    run(p, "SELECT k AS k2, COUNT(*) AS n FROM t CROSS JOIN (VALUES (1), (2)) AS vals(c) GROUP BY k", 0 to 4)
  }

  test("a variable two levels out: correlated SQL, a named SparkGen error") {
    val inner = ExistsAtom(Vector(RelAtom("u", Vector("j", "y2")), PredAtom(TBin(">", TBin("*", v("y2"), TConst(2.0)), v("x")))))
    val p = existsRule(ExistsAtom(Vector(RelAtom("u", Vector("k", "y")), inner)))
    duckSql.check(Prog("ir", cat, Left(p), "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND " +
      "EXISTS (SELECT 1 FROM u u2 WHERE u2.y * 2 > t.x))"), 0, in)
    val e = intercept[RuntimeException](SparkGen.compile(p, in.tables, cat, spark))
    assert(e.getMessage.contains("x is bound two levels out"), e.getMessage)
  }

  // ------------------------------------- semi-joins as IN, NULL join keys
  private def df(name: String) = Dsl.table(name)(cat)

  test("a NULL key on either side of a semi-join matches nothing, as under EXISTS (IN, O0–O4, MiniPandas)") {
    // n.k = 2 meets w's NULL key: `2 IN (1, NULL, 3)` is NULL, not true, so the row goes as under EXISTS.
    runSemi(Right(df("n").semiJoin(df("w"), Seq("k" -> "k"))),
      "SELECT k, x FROM n WHERE EXISTS (SELECT 1 FROM w WHERE w.k = n.k)", ins = 1, exists = 0)
  }

  test("an anti-join keeps its NOT EXISTS and its NULL-keyed rows (O0–O4, MiniPandas)") {
    // `NOT IN` would keep no row here, as w has a NULL key.
    runSemi(Right(df("n").antiJoin(df("w"), Seq("k" -> "k"))),
      "SELECT k, x FROM n WHERE NOT EXISTS (SELECT 1 FROM w WHERE w.k = n.k)", ins = 0, exists = 1)
  }

  test("a two-key semi-join stays EXISTS, as DuckDB rejects a row-valued IN (O0–O4, MiniPandas)") {
    runSemi(Right(df("t").semiJoin(df("w"), Seq("k" -> "k", "s" -> "s"))),
      "SELECT k, s, x FROM t WHERE EXISTS (SELECT 1 FROM w WHERE w.k = t.k AND w.s = t.s)", ins = 0, exists = 1)
  }

  test("a semi-join with a correlated <> stays EXISTS (TPC-H Q21's shape, O0–O4, MiniPandas)") {
    runSemi(Right(df("t").semiJoin(df("u"), Seq("k" -> "k"), Seq(("<>", "x", "y")))),
      "SELECT k, s, x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND u.y <> t.x)", ins = 0, exists = 1)
  }

  test("a key that correlates through an enclosing assignment becomes (expr) IN (O0–O4)") {
    // r(k) :- t(k, s, x), (j = k + 2), exists(u(j, y)).
    val p = existsRule(AssignAtom("j", TBin("+", v("k"), TConst(2L))), ExistsAtom(Vector(RelAtom("u", Vector("j", "y")))))
    assert(SqlGen.programSql(p, cat, SqlGen.DuckDialect).contains("WHERE ((t1.k + 2)) IN (SELECT t2.k FROM u AS t2)"))
    runSemi(Left(p), "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k + 2)", ins = 1, exists = 0)
  }

  for (how <- Seq("inner", "left"))
    test(s"a NULL key matches nothing in a merge with how = $how (O0–O4, MiniPandas)") {
      val join = if (how == "inner") "JOIN" else "LEFT JOIN"
      TestData.check(Prog("merge", cat, Right(df("n").mergeOn(df("w"), Seq("k"), Seq("k"), how)),
        s"SELECT n.k AS k, x, s, z FROM n $join w ON n.k = w.k"), in)
    }

  // ----------------------------------------- UID windows are flow breakers
  test("a UID rule is not inlined under a consumer that filters (O0–O4)") {
    // P(id, k, x) :- t(k, s, x), id = uid(x).   r(id2, x2) :- P(id2, k2, x2), x2 > 15.
    val p = Program(Vector(
      Rule(Head("P", Vector("id" -> v("id"), "k" -> v("k"), "x" -> v("x"))),
           Vector(tk, AssignAtom("id", TExt("uid", Seq(v("x")))))),
      Rule(Head("r", Vector("id2" -> v("id2"), "x2" -> v("x2"))),
           Vector(RelAtom("P", Vector("id2", "k2", "x2")), PredAtom(TBin(">", v("x2"), TConst(15.0)))))), "r")
    run(p, "SELECT id AS id2, x AS x2 FROM (SELECT ROW_NUMBER() OVER (ORDER BY x) - 1 AS id, x FROM t) WHERE x > 15",
      0 to 4)
  }

  test("toMatrix numbers the rows before a later filter (O0–O4, MiniPandas)") {
    runDsl(Dsl.table("t")(cat).toMatrix("x").toDf("x").filter(Dsl.col("x") > Dsl.lit(15.0)),
      "SELECT id, x FROM (SELECT ROW_NUMBER() OVER (ORDER BY x) - 1 AS id, x FROM t) WHERE x > 15")
  }

  test("alignWith pairs two relations by their row numbers (O0–O4, MiniPandas)") {
    runDsl(Dsl.table("t")(cat).select("x").alignWith(Dsl.table("u")(cat).select("y")),
      "SELECT x, y FROM (SELECT x, ROW_NUMBER() OVER (ORDER BY x) AS n FROM t) a " +
      "JOIN (SELECT y, ROW_NUMBER() OVER (ORDER BY y) AS n FROM u) b ON a.n = b.n")
  }

  test("alignWith orders negative values numerically (O0–O4, MiniPandas)") {
    runDsl(Dsl.table("t")(cat).withCol("nx", Dsl.lit(0.0) - Dsl.col("x")).select("nx")
             .alignWith(Dsl.table("u")(cat).select("y")),
      "SELECT nx, y FROM (SELECT 0.0 - x AS nx, ROW_NUMBER() OVER (ORDER BY 0.0 - x) AS n FROM t) a " +
      "JOIN (SELECT y, ROW_NUMBER() OVER (ORDER BY y) AS n FROM u) b ON a.n = b.n")
  }

  test("alignWith orders a string column as strings (O0–O4, MiniPandas)") {
    runDsl(Dsl.table("t")(cat).select("s", "x").alignWith(Dsl.table("u")(cat).select("y")),
      "SELECT s, x, y FROM (SELECT s, x, ROW_NUMBER() OVER (ORDER BY s, x) AS n FROM t) a " +
      "JOIN (SELECT y, ROW_NUMBER() OVER (ORDER BY y) AS n FROM u) b ON a.n = b.n")
  }

  // -------------------------------------------------- the answer check itself
  test("the answer check rejects a sorted answer in the wrong order") {
    def reverse(a: EnginePath.Answer) = (a._1, a._2.reverse)
    val reversed = duckSql.copy(setup = (p, l, in) => { val run = duckSql.setup(p, l, in); () => reverse(run()) })
    val top = Prog("top2", cat, Left(top2), "SELECT k, x FROM t WHERE x > 25")
    val e = intercept[AssertionError](reversed.check(top, 0, in))
    assert(e.getMessage.startsWith("generated DuckDB SQL (O0): rows 0 and 1 are out of the order x DESC"), e.getMessage)
  }

  test("a wrong answer names the path and level and prints the compiled program and SQL") {
    val wrong = Prog("wrong", cat, Left(filterDouble), "SELECT k, x * 3 AS d FROM t WHERE x > 15")
    val e = intercept[AssertionError](duckSql.check(wrong, 2, in))
    for (part <- Seq("generated DuckDB SQL (O2): result mismatch", "r(k, d) :- t(k, s, x)", "SELECT"))
      assert(e.getMessage.contains(part), e.getMessage)
  }
}
