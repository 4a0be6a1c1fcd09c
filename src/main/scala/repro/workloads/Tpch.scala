package repro.workloads

import repro.core.Catalog
import repro.data.TpchData
import repro.frontend.Dsl._

/** All 22 TPC-H queries written against the Pandas-style DSL (the paper's
  * headline coverage claim, §V-B), plus hand-written reference SQL used by
  * the DuckDB oracle.
  *
  * Constants are adapted to the synthetic [[TpchData]] distributions where
  * the official spec values would select nothing at small scale factors
  * (e.g. Q18's quantity threshold) — each adaptation keeps the query shape
  * (operators, join graph, aggregation structure) intact. Queries ending in
  * sort+limit carry an extra unique tie-breaking sort key so result sets
  * are deterministic across engines.
  */
object Tpch {

  final case class Query(id: Int, build: Catalog => Df, refSql: String)

  implicit private val cat: Catalog = TpchData.catalog

  private def li  = table("lineitem")
  private def ord = table("orders")
  private def cst = table("customer")
  private def prt = table("part")
  private def sup = table("supplier")
  private def ps  = table("partsupp")
  private def nat = table("nation")
  private def reg = table("region")

  private val revenueExpr = col("l_extendedprice") * (lit(1.0) - col("l_discount"))

  // ---------------------------------------------------------------- queries
  val q1 = Query(1, _ =>
    li.filter(col("l_shipdate") <= date("1998-09-02"))
      .withCols(
        "disc_price" -> revenueExpr,
        "charge"     -> (revenueExpr * (lit(1.0) + col("l_tax"))))
      .groupby("l_returnflag", "l_linestatus")
      .agg(
        AggSpec("sum_qty", "sum", col("l_quantity")),
        AggSpec("sum_base_price", "sum", col("l_extendedprice")),
        AggSpec("sum_disc_price", "sum", col("disc_price")),
        AggSpec("sum_charge", "sum", col("charge")),
        AggSpec("avg_qty", "avg", col("l_quantity")),
        AggSpec("avg_price", "avg", col("l_extendedprice")),
        AggSpec("avg_disc", "avg", col("l_discount")),
        AggSpec("count_order", "count", lit(1)))
      .sortValues(Seq("l_returnflag", "l_linestatus"), Seq(true, true)),
    """SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
      |  SUM(l_extendedprice) AS sum_base_price,
      |  SUM(l_extendedprice*(1-l_discount)) AS sum_disc_price,
      |  SUM(l_extendedprice*(1-l_discount)*(1+l_tax)) AS sum_charge,
      |  AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price,
      |  AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
      |FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
      |GROUP BY l_returnflag, l_linestatus""".stripMargin)

  val q2 = Query(2, _ => {
    val joined = prt.filter((col("p_size") === lit(15)) && col("p_type").like("%BRASS"))
      .mergeOn(ps, Seq("p_partkey"), Seq("ps_partkey"))
      .mergeOn(sup, Seq("ps_suppkey"), Seq("s_suppkey"))
      .mergeOn(nat, Seq("s_nationkey"), Seq("n_nationkey"))
      .mergeOn(reg.filter(col("r_name") === lit("EUROPE")), Seq("n_regionkey"), Seq("r_regionkey"))
    val minCost = joined.groupby("p_partkey").agg(AggSpec("min_cost", "min", col("ps_supplycost")))
      .rename("p_partkey" -> "mk")
    joined.mergeOn(minCost, Seq("p_partkey"), Seq("mk"))
      .filter(col("ps_supplycost") === col("min_cost"))
      .select("s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address", "s_phone")
      .sortValues(Seq("s_acctbal", "n_name", "s_name", "p_partkey"), Seq(false, true, true, true))
      .head(100)
  },
    """SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone
      |FROM part, partsupp, supplier, nation, region
      |WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15
      |  AND p_type LIKE '%BRASS' AND s_nationkey = n_nationkey
      |  AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
      |  AND ps_supplycost = (
      |    SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region
      |    WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
      |      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      |      AND r_name = 'EUROPE')
      |ORDER BY s_acctbal DESC, n_name, s_name, p_partkey LIMIT 100""".stripMargin)

  val q3 = Query(3, _ =>
    cst.filter(col("c_mktsegment") === lit("BUILDING"))
      .mergeOn(ord.filter(col("o_orderdate") < date("1995-03-15")), Seq("c_custkey"), Seq("o_custkey"))
      .mergeOn(li.filter(col("l_shipdate") > date("1995-03-15")), Seq("o_orderkey"), Seq("l_orderkey"))
      .withCol("volume", revenueExpr)
      .groupby("l_orderkey", "o_orderdate", "o_shippriority")
      .agg(AggSpec("revenue", "sum", col("volume")))
      .select("l_orderkey", "revenue", "o_orderdate", "o_shippriority")
      .sortValues(Seq("revenue", "o_orderdate", "l_orderkey"), Seq(false, true, true))
      .head(10),
    """SELECT l_orderkey, SUM(l_extendedprice*(1-l_discount)) AS revenue,
      |  o_orderdate, o_shippriority
      |FROM customer, orders, lineitem
      |WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
      |  AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15'
      |  AND l_shipdate > DATE '1995-03-15'
      |GROUP BY l_orderkey, o_orderdate, o_shippriority
      |ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10""".stripMargin)

  val q4 = Query(4, _ =>
    ord.filter((col("o_orderdate") >= date("1993-07-01")) && (col("o_orderdate") < date("1993-10-01")))
      .semiJoin(li.filter(col("l_commitdate") < col("l_receiptdate")),
                on = Seq("o_orderkey" -> "l_orderkey"))
      .groupby("o_orderpriority").agg(AggSpec("order_count", "count", lit(1)))
      .sortValues(Seq("o_orderpriority"), Seq(true)),
    """SELECT o_orderpriority, COUNT(*) AS order_count
      |FROM orders
      |WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-10-01'
      |  AND EXISTS (SELECT 1 FROM lineitem
      |              WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
      |GROUP BY o_orderpriority ORDER BY o_orderpriority""".stripMargin)

  val q5 = Query(5, _ =>
    cst
      .mergeOn(ord.filter((col("o_orderdate") >= date("1994-01-01")) && (col("o_orderdate") < date("1995-01-01"))),
               Seq("c_custkey"), Seq("o_custkey"))
      .mergeOn(li, Seq("o_orderkey"), Seq("l_orderkey"))
      .mergeOn(sup, Seq("l_suppkey", "c_nationkey"), Seq("s_suppkey", "s_nationkey"))
      .mergeOn(nat, Seq("s_nationkey"), Seq("n_nationkey"))
      .mergeOn(reg.filter(col("r_name") === lit("ASIA")), Seq("n_regionkey"), Seq("r_regionkey"))
      .withCol("volume", revenueExpr)
      .groupby("n_name").agg(AggSpec("revenue", "sum", col("volume")))
      .sortValues(Seq("revenue"), Seq(false)),
    """SELECT n_name, SUM(l_extendedprice*(1-l_discount)) AS revenue
      |FROM customer, orders, lineitem, supplier, nation, region
      |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      |  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
      |  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      |  AND r_name = 'ASIA' AND o_orderdate >= DATE '1994-01-01'
      |  AND o_orderdate < DATE '1995-01-01'
      |GROUP BY n_name ORDER BY revenue DESC""".stripMargin)

  val q6 = Query(6, _ =>
    li.filter((col("l_shipdate") >= date("1994-01-01")) && (col("l_shipdate") < date("1995-01-01")) &&
              (col("l_discount") >= lit(0.05)) && (col("l_discount") <= lit(0.07)) &&
              (col("l_quantity") < lit(24.0)))
      .aggregate(AggSpec("revenue", "sum", col("l_extendedprice") * col("l_discount"))),
    """SELECT SUM(l_extendedprice*l_discount) AS revenue FROM lineitem
      |WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
      |  AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24""".stripMargin)

  val q7 = Query(7, _ => {
    val n1 = nat.rename("n_nationkey" -> "n1_key", "n_name" -> "supp_nation", "n_regionkey" -> "n1_reg")
    val n2 = nat.rename("n_nationkey" -> "n2_key", "n_name" -> "cust_nation", "n_regionkey" -> "n2_reg")
    sup
      .mergeOn(li.filter((col("l_shipdate") >= date("1995-01-01")) && (col("l_shipdate") <= date("1996-12-31"))),
               Seq("s_suppkey"), Seq("l_suppkey"))
      .mergeOn(ord, Seq("l_orderkey"), Seq("o_orderkey"))
      .mergeOn(cst, Seq("o_custkey"), Seq("c_custkey"))
      .mergeOn(n1, Seq("s_nationkey"), Seq("n1_key"))
      .mergeOn(n2, Seq("c_nationkey"), Seq("n2_key"))
      .filter(((col("supp_nation") === lit("FRANCE")) && (col("cust_nation") === lit("GERMANY"))) ||
              ((col("supp_nation") === lit("GERMANY")) && (col("cust_nation") === lit("FRANCE"))))
      .withCols("l_year" -> col("l_shipdate").year, "volume" -> revenueExpr)
      .groupby("supp_nation", "cust_nation", "l_year")
      .agg(AggSpec("revenue", "sum", col("volume")))
      .sortValues(Seq("supp_nation", "cust_nation", "l_year"), Seq(true, true, true))
  },
    """SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
      |  YEAR(l_shipdate) AS l_year, SUM(l_extendedprice*(1-l_discount)) AS revenue
      |FROM supplier, lineitem, orders, customer, nation n1, nation n2
      |WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
      |  AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
      |  AND c_nationkey = n2.n_nationkey
      |  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
      |    OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
      |  AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
      |GROUP BY n1.n_name, n2.n_name, YEAR(l_shipdate)
      |ORDER BY supp_nation, cust_nation, l_year""".stripMargin)

  val q8 = Query(8, _ => {
    val n1 = nat.rename("n_nationkey" -> "n1_key", "n_name" -> "n1_name", "n_regionkey" -> "n1_reg")
    val n2 = nat.rename("n_nationkey" -> "n2_key", "n_name" -> "n2_name", "n_regionkey" -> "n2_reg")
    prt.filter(col("p_type") === lit("ECONOMY ANODIZED STEEL"))
      .mergeOn(li, Seq("p_partkey"), Seq("l_partkey"))
      .mergeOn(ord.filter((col("o_orderdate") >= date("1995-01-01")) && (col("o_orderdate") <= date("1996-12-31"))),
               Seq("l_orderkey"), Seq("o_orderkey"))
      .mergeOn(cst, Seq("o_custkey"), Seq("c_custkey"))
      .mergeOn(n1, Seq("c_nationkey"), Seq("n1_key"))
      .mergeOn(reg.filter(col("r_name") === lit("AMERICA")), Seq("n1_reg"), Seq("r_regionkey"))
      .mergeOn(sup, Seq("l_suppkey"), Seq("s_suppkey"))
      .mergeOn(n2, Seq("s_nationkey"), Seq("n2_key"))
      .withCols("o_year" -> col("o_orderdate").year, "volume" -> revenueExpr)
      .withCol("nation_volume", when(col("n2_name") === lit("BRAZIL"), col("volume"), lit(0.0)))
      .groupby("o_year")
      .agg(AggSpec("nsum", "sum", col("nation_volume")), AggSpec("tsum", "sum", col("volume")))
      .withCol("mkt_share", col("nsum") / col("tsum"))
      .select("o_year", "mkt_share")
      .sortValues(Seq("o_year"), Seq(true))
  },
    """SELECT o_year, SUM(nation_volume)/SUM(volume) AS mkt_share FROM (
      |  SELECT YEAR(o_orderdate) AS o_year,
      |    l_extendedprice*(1-l_discount) AS volume,
      |    CASE WHEN n2.n_name = 'BRAZIL' THEN l_extendedprice*(1-l_discount) ELSE 0 END AS nation_volume
      |  FROM part, lineitem, orders, customer, supplier, nation n1, nation n2, region
      |  WHERE p_partkey = l_partkey AND l_orderkey = o_orderkey
      |    AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey
      |    AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA'
      |    AND l_suppkey = s_suppkey AND s_nationkey = n2.n_nationkey
      |    AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
      |    AND p_type = 'ECONOMY ANODIZED STEEL') t
      |GROUP BY o_year ORDER BY o_year""".stripMargin)

  val q9 = Query(9, _ =>
    prt.filter(col("p_name").like("%green%"))
      .mergeOn(li, Seq("p_partkey"), Seq("l_partkey"))
      .mergeOn(sup, Seq("l_suppkey"), Seq("s_suppkey"))
      .mergeOn(ps, Seq("l_suppkey", "l_partkey"), Seq("ps_suppkey", "ps_partkey"))
      .mergeOn(ord, Seq("l_orderkey"), Seq("o_orderkey"))
      .mergeOn(nat, Seq("s_nationkey"), Seq("n_nationkey"))
      .withCols("o_year" -> col("o_orderdate").year,
                "amount" -> (revenueExpr - col("ps_supplycost") * col("l_quantity")))
      .groupby("n_name", "o_year")
      .agg(AggSpec("sum_profit", "sum", col("amount")))
      .sortValues(Seq("n_name", "o_year"), Seq(true, false)),
    """SELECT n_name, YEAR(o_orderdate) AS o_year,
      |  SUM(l_extendedprice*(1-l_discount) - ps_supplycost*l_quantity) AS sum_profit
      |FROM part, lineitem, supplier, partsupp, orders, nation
      |WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
      |  AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
      |  AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
      |  AND p_name LIKE '%green%'
      |GROUP BY n_name, YEAR(o_orderdate) ORDER BY n_name, o_year DESC""".stripMargin)

  val q10 = Query(10, _ =>
    cst
      .mergeOn(ord.filter((col("o_orderdate") >= date("1993-10-01")) && (col("o_orderdate") < date("1994-01-01"))),
               Seq("c_custkey"), Seq("o_custkey"))
      .mergeOn(li.filter(col("l_returnflag") === lit("R")), Seq("o_orderkey"), Seq("l_orderkey"))
      .mergeOn(nat, Seq("c_nationkey"), Seq("n_nationkey"))
      .withCol("volume", revenueExpr)
      .groupby("c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment")
      .agg(AggSpec("revenue", "sum", col("volume")))
      .select("c_custkey", "c_name", "revenue", "c_acctbal", "n_name", "c_address", "c_phone", "c_comment")
      .sortValues(Seq("revenue", "c_custkey"), Seq(false, true))
      .head(20),
    """SELECT c_custkey, c_name, SUM(l_extendedprice*(1-l_discount)) AS revenue,
      |  c_acctbal, n_name, c_address, c_phone, c_comment
      |FROM customer, orders, lineitem, nation
      |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      |  AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01'
      |  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
      |GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
      |ORDER BY revenue DESC, c_custkey LIMIT 20""".stripMargin)

  val q11 = Query(11, _ => {
    val joined = ps
      .mergeOn(sup, Seq("ps_suppkey"), Seq("s_suppkey"))
      .mergeOn(nat.filter(col("n_name") === lit("GERMANY")), Seq("s_nationkey"), Seq("n_nationkey"))
      .withCol("value", col("ps_supplycost") * col("ps_availqty"))
    val grouped = joined.groupby("ps_partkey").agg(AggSpec("value", "sum", col("value")))
    val total = joined.aggregate(AggSpec("total", "sum", col("value")))
    grouped.crossMerge(total)
      .filter(col("value") > col("total") * lit(0.0001))
      .select("ps_partkey", "value")
      .sortValues(Seq("value", "ps_partkey"), Seq(false, true))
  },
    """SELECT ps_partkey, SUM(ps_supplycost*ps_availqty) AS value
      |FROM partsupp, supplier, nation
      |WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'
      |GROUP BY ps_partkey
      |HAVING SUM(ps_supplycost*ps_availqty) > (
      |  SELECT SUM(ps_supplycost*ps_availqty)*0.0001
      |  FROM partsupp, supplier, nation
      |  WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY')
      |ORDER BY value DESC, ps_partkey""".stripMargin)

  val q12 = Query(12, _ =>
    ord
      .mergeOn(li.filter(col("l_shipmode").in("MAIL", "SHIP") &&
                         (col("l_commitdate") < col("l_receiptdate")) &&
                         (col("l_shipdate") < col("l_commitdate")) &&
                         (col("l_receiptdate") >= date("1994-01-01")) &&
                         (col("l_receiptdate") < date("1995-01-01"))),
               Seq("o_orderkey"), Seq("l_orderkey"))
      .withCols(
        "high" -> when(col("o_orderpriority").in("1-URGENT", "2-HIGH"), lit(1L), lit(0L)),
        "low"  -> when(col("o_orderpriority").in("1-URGENT", "2-HIGH"), lit(0L), lit(1L)))
      .groupby("l_shipmode")
      .agg(AggSpec("high_line_count", "sum", col("high")),
           AggSpec("low_line_count", "sum", col("low")))
      .sortValues(Seq("l_shipmode"), Seq(true)),
    """SELECT l_shipmode,
      |  SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
      |  SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
      |FROM orders, lineitem
      |WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL','SHIP')
      |  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
      |  AND l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01'
      |GROUP BY l_shipmode ORDER BY l_shipmode""".stripMargin)

  val q13 = Query(13, _ =>
    cst
      .mergeOn(ord.filter(col("o_comment").notLike("%special%requests%")),
               Seq("c_custkey"), Seq("o_custkey"), how = "left")
      .groupby("c_custkey").agg(AggSpec("c_count", "count", col("o_orderkey")))
      .groupby("c_count").agg(AggSpec("custdist", "count", lit(1)))
      .sortValues(Seq("custdist", "c_count"), Seq(false, false)),
    """SELECT c_count, COUNT(*) AS custdist FROM (
      |  SELECT c_custkey, COUNT(o_orderkey) AS c_count
      |  FROM customer LEFT JOIN orders
      |    ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
      |  GROUP BY c_custkey) t
      |GROUP BY c_count ORDER BY custdist DESC, c_count DESC""".stripMargin)

  val q14 = Query(14, _ =>
    li.filter((col("l_shipdate") >= date("1995-09-01")) && (col("l_shipdate") < date("1995-10-01")))
      .mergeOn(prt, Seq("l_partkey"), Seq("p_partkey"))
      .withCols(
        "volume" -> revenueExpr,
        "promo"  -> when(col("p_type").like("PROMO%"), revenueExpr, lit(0.0)))
      .aggregate(AggSpec("psum", "sum", col("promo")), AggSpec("tsum", "sum", col("volume")))
      .withCol("promo_revenue", lit(100.0) * col("psum") / col("tsum"))
      .select("promo_revenue"),
    """SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
      |    THEN l_extendedprice*(1-l_discount) ELSE 0 END)
      |  / SUM(l_extendedprice*(1-l_discount)) AS promo_revenue
      |FROM lineitem, part
      |WHERE l_partkey = p_partkey
      |  AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'""".stripMargin)

  val q15 = Query(15, _ => {
    val rev = li.filter((col("l_shipdate") >= date("1996-01-01")) && (col("l_shipdate") < date("1996-04-01")))
      .withCol("volume", revenueExpr)
      .groupby("l_suppkey").agg(AggSpec("total_revenue", "sum", col("volume")))
    val maxRev = rev.aggregate(AggSpec("max_rev", "max", col("total_revenue")))
    sup.mergeOn(rev, Seq("s_suppkey"), Seq("l_suppkey"))
      .crossMerge(maxRev)
      .filter(col("total_revenue") === col("max_rev"))
      .select("s_suppkey", "s_name", "s_address", "s_phone", "total_revenue")
      .sortValues(Seq("s_suppkey"), Seq(true))
  },
    """WITH revenue AS (
      |  SELECT l_suppkey AS supplier_no, SUM(l_extendedprice*(1-l_discount)) AS total_revenue
      |  FROM lineitem
      |  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
      |  GROUP BY l_suppkey)
      |SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
      |FROM supplier, revenue
      |WHERE s_suppkey = supplier_no
      |  AND total_revenue = (SELECT MAX(total_revenue) FROM revenue)
      |ORDER BY s_suppkey""".stripMargin)

  val q16 = Query(16, _ =>
    prt.filter((col("p_brand") !== lit("Brand#45")) &&
               col("p_type").notLike("MEDIUM POLISHED%") &&
               col("p_size").in(49, 14, 23, 45, 19, 3, 36, 9))
      .mergeOn(ps, Seq("p_partkey"), Seq("ps_partkey"))
      .antiJoin(sup.filter(col("s_comment").like("%Customer%Complaints%")),
                on = Seq("ps_suppkey" -> "s_suppkey"))
      .groupby("p_brand", "p_type", "p_size")
      .agg(AggSpec("supplier_cnt", "count", col("ps_suppkey"), distinct = true))
      .sortValues(Seq("supplier_cnt", "p_brand", "p_type", "p_size"), Seq(false, true, true, true)),
    """SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
      |FROM partsupp, part
      |WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
      |  AND p_type NOT LIKE 'MEDIUM POLISHED%'
      |  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
      |  AND NOT EXISTS (SELECT 1 FROM supplier
      |    WHERE s_suppkey = ps_suppkey AND s_comment LIKE '%Customer%Complaints%')
      |GROUP BY p_brand, p_type, p_size
      |ORDER BY supplier_cnt DESC, p_brand, p_type, p_size""".stripMargin)

  val q17 = Query(17, _ => {
    val pj = li.mergeOn(prt.filter((col("p_brand") === lit("Brand#23")) && (col("p_container") === lit("MED BOX"))),
                        Seq("l_partkey"), Seq("p_partkey"))
    val avgq = pj.groupby("l_partkey").agg(AggSpec("avg_qty", "avg", col("l_quantity")))
      .rename("l_partkey" -> "ak")
    pj.mergeOn(avgq, Seq("l_partkey"), Seq("ak"))
      .filter(col("l_quantity") < lit(0.2) * col("avg_qty"))
      .aggregate(AggSpec("ssum", "sum", col("l_extendedprice")))
      .withCol("avg_yearly", col("ssum") / lit(7.0))
      .select("avg_yearly")
  },
    """SELECT SUM(l_extendedprice)/7.0 AS avg_yearly
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
      |  AND l_quantity < (SELECT 0.2*AVG(l2.l_quantity) FROM lineitem l2
      |                    WHERE l2.l_partkey = p_partkey)""".stripMargin)

  val q18 = Query(18, _ => {
    // Quantity threshold adapted from 300 to 150: the synthetic SF≤1 data
    // has ~4 lines/order, so the spec value selects (almost) nothing.
    val big = li.groupby("l_orderkey").agg(AggSpec("sum_qty", "sum", col("l_quantity")))
      .filter(col("sum_qty") > lit(150.0))
    cst
      .mergeOn(ord, Seq("c_custkey"), Seq("o_custkey"))
      .semiJoin(big, on = Seq("o_orderkey" -> "l_orderkey"))
      .mergeOn(li, Seq("o_orderkey"), Seq("l_orderkey"))
      .groupby("c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice")
      .agg(AggSpec("sum_qty", "sum", col("l_quantity")))
      .sortValues(Seq("o_totalprice", "o_orderdate", "o_orderkey"), Seq(false, true, true))
      .head(100)
  },
    """SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
      |  SUM(l_quantity) AS sum_qty
      |FROM customer, orders, lineitem
      |WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
      |                     GROUP BY l_orderkey HAVING SUM(l_quantity) > 150)
      |  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
      |GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
      |ORDER BY o_totalprice DESC, o_orderdate, o_orderkey LIMIT 100""".stripMargin)

  val q19 = Query(19, _ =>
    li.filter(col("l_shipmode").in("AIR", "REG AIR") &&
              (col("l_shipinstruct") === lit("DELIVER IN PERSON")))
      .mergeOn(prt, Seq("l_partkey"), Seq("p_partkey"))
      .filter(
        ((col("p_brand") === lit("Brand#12")) && col("p_container").in("SM CASE", "SM BOX") &&
         (col("l_quantity") >= lit(1.0)) && (col("l_quantity") <= lit(11.0)) &&
         (col("p_size") >= lit(1)) && (col("p_size") <= lit(5))) ||
        ((col("p_brand") === lit("Brand#23")) && col("p_container").in("MED BAG", "MED BOX") &&
         (col("l_quantity") >= lit(10.0)) && (col("l_quantity") <= lit(20.0)) &&
         (col("p_size") >= lit(1)) && (col("p_size") <= lit(10))) ||
        ((col("p_brand") === lit("Brand#34")) && col("p_container").in("LG CASE", "LG BOX") &&
         (col("l_quantity") >= lit(20.0)) && (col("l_quantity") <= lit(30.0)) &&
         (col("p_size") >= lit(1)) && (col("p_size") <= lit(15))))
      .aggregate(AggSpec("revenue", "sum", revenueExpr)),
    """SELECT SUM(l_extendedprice*(1-l_discount)) AS revenue
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey AND l_shipmode IN ('AIR','REG AIR')
      |  AND l_shipinstruct = 'DELIVER IN PERSON'
      |  AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE','SM BOX')
      |        AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5)
      |    OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG','MED BOX')
      |        AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10)
      |    OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE','LG BOX')
      |        AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15))""".stripMargin)

  val q20 = Query(20, _ => {
    val qty = li.filter((col("l_shipdate") >= date("1994-01-01")) && (col("l_shipdate") < date("1995-01-01")))
      .groupby("l_partkey", "l_suppkey").agg(AggSpec("sum_qty", "sum", col("l_quantity")))
    val excess = ps
      .semiJoin(prt.filter(col("p_name").like("green%")), on = Seq("ps_partkey" -> "p_partkey"))
      .mergeOn(qty, Seq("ps_partkey", "ps_suppkey"), Seq("l_partkey", "l_suppkey"))
      .filter(col("ps_availqty") > lit(0.5) * col("sum_qty"))
    sup
      .semiJoin(excess, on = Seq("s_suppkey" -> "ps_suppkey"))
      .mergeOn(nat.filter(col("n_name") === lit("CANADA")), Seq("s_nationkey"), Seq("n_nationkey"))
      .select("s_name", "s_address")
      .sortValues(Seq("s_name"), Seq(true))
  },
    """SELECT s_name, s_address FROM supplier, nation
      |WHERE s_suppkey IN (
      |  SELECT ps_suppkey FROM partsupp, (
      |      SELECT l_partkey, l_suppkey, SUM(l_quantity) AS sum_qty FROM lineitem
      |      WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
      |      GROUP BY l_partkey, l_suppkey) q
      |  WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'green%')
      |    AND ps_partkey = q.l_partkey AND ps_suppkey = q.l_suppkey
      |    AND ps_availqty > 0.5*q.sum_qty)
      |  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
      |ORDER BY s_name""".stripMargin)

  val q21 = Query(21, _ => {
    val l1 = li.filter(col("l_receiptdate") > col("l_commitdate"))
    val base = sup
      .mergeOn(nat.filter(col("n_name") === lit("SAUDI ARABIA")), Seq("s_nationkey"), Seq("n_nationkey"))
      .mergeOn(l1, Seq("s_suppkey"), Seq("l_suppkey"))
      .mergeOn(ord.filter(col("o_orderstatus") === lit("F")), Seq("l_orderkey"), Seq("o_orderkey"))
    base
      .semiJoin(li, on = Seq("l_orderkey" -> "l_orderkey"), neq = Seq(("<>", "l_suppkey", "l_suppkey")))
      .antiJoin(l1, on = Seq("l_orderkey" -> "l_orderkey"), neq = Seq(("<>", "l_suppkey", "l_suppkey")))
      .groupby("s_name").agg(AggSpec("numwait", "count", lit(1)))
      .sortValues(Seq("numwait", "s_name"), Seq(false, true))
      .head(100)
  },
    """SELECT s_name, COUNT(*) AS numwait
      |FROM supplier, lineitem l1, orders, nation
      |WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey
      |  AND o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate
      |  AND EXISTS (SELECT 1 FROM lineitem l2
      |              WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey)
      |  AND NOT EXISTS (SELECT 1 FROM lineitem l3
      |                  WHERE l3.l_orderkey = l1.l_orderkey AND l3.l_suppkey <> l1.l_suppkey
      |                    AND l3.l_receiptdate > l3.l_commitdate)
      |  AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
      |GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 100""".stripMargin)

  val q22 = Query(22, _ => {
    val codes = Seq("13", "31", "23", "29", "30", "18", "17")
    val cust2 = cst.withCol("cntrycode", col("c_phone").substr(1, 2))
    val pos = cust2.filter((col("c_acctbal") > lit(0.0)) && col("cntrycode").in(codes: _*))
    val avgBal = pos.aggregate(AggSpec("avg_bal", "avg", col("c_acctbal")))
    cust2.filter(col("cntrycode").in(codes: _*))
      .crossMerge(avgBal)
      .filter(col("c_acctbal") > col("avg_bal"))
      .antiJoin(ord, on = Seq("c_custkey" -> "o_custkey"))
      .groupby("cntrycode")
      .agg(AggSpec("numcust", "count", lit(1)), AggSpec("totacctbal", "sum", col("c_acctbal")))
      .sortValues(Seq("cntrycode"), Seq(true))
  },
    """SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal FROM (
      |  SELECT SUBSTR(c_phone, 1, 2) AS cntrycode, c_acctbal
      |  FROM customer
      |  WHERE SUBSTR(c_phone, 1, 2) IN ('13','31','23','29','30','18','17')
      |    AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer
      |                     WHERE c_acctbal > 0.0
      |                       AND SUBSTR(c_phone, 1, 2) IN ('13','31','23','29','30','18','17'))
      |    AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)) t
      |GROUP BY cntrycode ORDER BY cntrycode""".stripMargin)

  val all: Vector[Query] = Vector(q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11,
    q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22)
}
