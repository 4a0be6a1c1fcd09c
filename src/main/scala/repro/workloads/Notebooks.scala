package repro.workloads

import repro.core.Catalog
import repro.data.NotebookData
import repro.frontend.Dsl._

/** A data-science workload: DSL program + DuckDB reference SQL. */
final case class Workload(name: String, build: Catalog => Df, refSql: String)

/** The real-world data-science notebooks of §V-A, reconstructed over
  * synthetic data (see DESIGN.md): Weld's Crime Index and Birth Analysis,
  * and the PyFroid Kaggle notebooks N3 (airline RA pipeline) and N9.
  */
object Notebooks {

  implicit private val cat: Catalog = NotebookData.catalog

  /** Crime Index: Pandas filter → NumPy einsum (matrix–vector with a weight
    * vector) → Pandas filter/aggregate. The paper's canonical hybrid
    * pipeline (Pandas → NumPy → Pandas). */
  val crimeIndex: Workload = Workload("CrimeIndex", _ => {
    val bigCities = table("crimes").filter(col("total_population") > lit(500000.0))
    val arr = bigCities.toMatrix("total_population", "adult_population", "num_robberies")
    val ci  = np.einsum("ij,j->i", arr, matrixTable("crime_weights"))
    ci.toDf("ci")
      .filter(col("ci") > lit(1.5))
      .aggregate(AggSpec("total_ci", "sum", col("ci")), AggSpec("cnt", "count", lit(1)))
  },
    """SELECT SUM(ci) AS total_ci, COUNT(*) AS cnt FROM (
      |  SELECT 2.0e-6*total_population + 1.0e-6*adult_population - 3.0e-4*num_robberies AS ci
      |  FROM crimes WHERE total_population > 500000) t
      |WHERE ci > 1.5""".stripMargin)

  /** Birth Analysis: pivot_table on sex (decorator-supplied distinct
    * values), ratio computation ("fancy indexing"), filter, sort. */
  val birthAnalysis: Workload = Workload("BirthAnalysis", _ =>
    table("births")
      .pivotTable("year", "sex", "births", Seq("F", "M"))
      .withCol("ratio", col("F") / (col("F") + col("M")))
      .filter(col("ratio") > lit(0.5))
      .sortValues(Seq("year"), Seq(true)),
    """SELECT * FROM (
      |  SELECT year,
      |    SUM(CASE WHEN sex='F' THEN births ELSE 0 END) AS F,
      |    SUM(CASE WHEN sex='M' THEN births ELSE 0 END) AS M,
      |    SUM(CASE WHEN sex='F' THEN births ELSE 0 END)
      |      / (SUM(CASE WHEN sex='F' THEN births ELSE 0 END)
      |         + SUM(CASE WHEN sex='M' THEN births ELSE 0 END)) AS ratio
      |  FROM births GROUP BY year) t
      |WHERE ratio > 0.5 ORDER BY year""".stripMargin)

  /** N3: a pure-relational airline pipeline — filter, two group-bys over the
    * same scan, merge, derived column, sort+limit. */
  val n3: Workload = Workload("N3", _ => {
    val ok = table("flights").filter(col("cancelled") === lit(0L))
    val byRoute = ok.groupby("origin", "carrier")
      .agg(AggSpec("avg_dep", "avg", col("dep_delay")),
           AggSpec("avg_arr", "avg", col("arr_delay")),
           AggSpec("cnt", "count", lit(1)))
      .filter(col("cnt") > lit(25L))
    val byDest = ok.groupby("dest").agg(AggSpec("dest_delay", "avg", col("arr_delay")))
      .rename("dest" -> "d")
    byRoute.mergeOn(byDest, Seq("origin"), Seq("d"))
      .withCol("spread", col("avg_arr") - col("dest_delay"))
      .select("origin", "carrier", "avg_dep", "avg_arr", "cnt", "spread")
      .sortValues(Seq("spread", "origin", "carrier"), Seq(false, true, true))
      .head(50)
  },
    """WITH ok AS (SELECT * FROM flights WHERE cancelled = 0),
      |route AS (
      |  SELECT origin, carrier, AVG(dep_delay) AS avg_dep, AVG(arr_delay) AS avg_arr,
      |         COUNT(*) AS cnt
      |  FROM ok GROUP BY origin, carrier HAVING COUNT(*) > 25),
      |dst AS (SELECT dest, AVG(arr_delay) AS dest_delay FROM ok GROUP BY dest)
      |SELECT origin, carrier, avg_dep, avg_arr, cnt, avg_arr - dest_delay AS spread
      |FROM route JOIN dst ON origin = dest
      |ORDER BY spread DESC, origin, carrier LIMIT 50""".stripMargin)

  /** N9: filter + derived banding column + group-by + sort (survey-style
    * aggregation notebook). */
  val n9: Workload = Workload("N9", _ =>
    table("salaries")
      .filter((col("age") >= lit(25L)) && (col("age") <= lit(45L)))
      .withCol("band",
        when(col("salary") < lit(40000.0), lit("low"),
          when(col("salary") < lit(100000.0), lit("mid"), lit("high"))))
      .groupby("country", "band")
      .agg(AggSpec("n", "count", lit(1)), AggSpec("avg_salary", "avg", col("salary")))
      .sortValues(Seq("country", "band"), Seq(true, true)),
    """SELECT country, band, COUNT(*) AS n, AVG(salary) AS avg_salary FROM (
      |  SELECT country, salary,
      |    CASE WHEN salary < 40000 THEN 'low'
      |         WHEN salary < 100000 THEN 'mid' ELSE 'high' END AS band
      |  FROM salaries WHERE age >= 25 AND age <= 45) t
      |GROUP BY country, band ORDER BY country, band""".stripMargin)

  val all: Vector[Workload] = Vector(crimeIndex, birthAnalysis, n3, n9)
}
