package repro.perf

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Catalog
import repro.data.{NotebookData, TpchData}
import repro.frontend.Dsl
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** A benchmark program: the DSL program, the catalog it is written against
  * and its hand-written reference SQL (the answer gate). */
final case class Prog(id: String, cat: Catalog, df: Dsl.Df, refSql: String)

/** The workloads. `tpch` runs the 22 TPC-H queries and `hybrid` the 8
  * notebook and hybrid programs at SF 0.1 on inputs drawn from the seed,
  * where engine execution dominates. `interactive` runs all 30
  * programs at SF 0.01 on exactly the tier-1 test inputs (the generators'
  * own default seeds), where per-call fixed costs dominate; its seed draws
  * the order in which the client issues the programs. Its inputs stay fixed
  * because which programs answer wrongly at this scale depends on the data
  * (TPC-H Q20 at O4 fails on the tier-1 inputs but not on every seed). */
object Workloads {
  val names: Vector[String] = Vector("tpch", "hybrid", "interactive")

  def scaleFactor(w: String): Double = if (w == "interactive") 0.01 else 0.1

  private def tpch: Vector[Prog] =
    Tpch.all.map(q => Prog(s"Q${q.id}", TpchData.catalog, q.build(TpchData.catalog), q.refSql))

  private def notebooks: Vector[Prog] = (Notebooks.all ++ Hybrid.all).map(w =>
    Prog(w.name, NotebookData.catalog, w.build(NotebookData.catalog), w.refSql))

  /** The programs the Spark phase runs. Spark costs about a second a call,
    * twice per program (reference SQL and program), so within one run's time
    * `interactive` takes every fifth program (Q5, Q10, Q15, Q20, N3,
    * HybridCovarFiltered), which includes Q20, the program known to answer
    * wrongly at O4. The other workloads run all their programs. */
  def sparkPrograms(w: String, seed: Long): Vector[Prog] =
    if (w != "interactive") programs(w, seed)
    else {
      val fifth = (tpch ++ notebooks).map(_.id).zipWithIndex.collect { case (id, i) if i % 5 == 4 => id }.toSet
      programs(w, seed).filter(p => fifth(p.id))
    }

  /** The programs in the order the client issues them. */
  def programs(w: String, seed: Long): Vector[Prog] = w match {
    case "tpch"        => tpch
    case "hybrid"      => notebooks
    case "interactive" => new scala.util.Random(seed).shuffle(tpch ++ notebooks)
  }

  /** Every base table of the workload from its per-table generator. For
    * `tpch` and `hybrid` the run seed moves each generator's default seed by
    * `1000 * seed`, so tables keep distinct random streams. */
  def tables(w: String, spark: SparkSession, seed: Long): Vector[(String, DataFrame)] = {
    val sf = scaleFactor(w)
    val s  = if (w == "interactive") 0L else 1000L * seed
    def tpchTables = Vector(
      "lineitem" -> TpchData.lineitem(spark, sf, s + 0),
      "orders"   -> TpchData.orders(spark, sf, s + 1),
      "customer" -> TpchData.customer(spark, sf, s + 2),
      "part"     -> TpchData.part(spark, sf, s + 5),
      "supplier" -> TpchData.supplier(spark, sf, s + 6),
      "partsupp" -> TpchData.partsupp(spark, sf, s + 7),
      "nation"   -> TpchData.nation(spark),
      "region"   -> TpchData.region(spark))
    def notebookTables = Vector(
      "crimes"         -> NotebookData.crimes(spark, sf, s + 20),
      "crime_weights"  -> NotebookData.crimeWeights(spark),
      "births"         -> NotebookData.births(spark, sf, s + 30),
      "flights"        -> NotebookData.flights(spark, sf, s + 40),
      "salaries"       -> NotebookData.salaries(spark, sf, s + 50),
      "hybrid_a"       -> NotebookData.hybridA(spark, sf, s + 60),
      "hybrid_b"       -> NotebookData.hybridB(spark, sf, s + 70),
      "hybrid_weights" -> NotebookData.hybridWeights(spark))
    w match {
      case "tpch"        => tpchTables
      case "hybrid"      => notebookTables
      case "interactive" => tpchTables ++ notebookTables
    }
  }
}
