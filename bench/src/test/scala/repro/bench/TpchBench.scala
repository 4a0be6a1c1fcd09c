package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** T1/T2 — Fig. 3 and Fig. 4: all 22 TPC-H queries across the alternatives
  * of [[Bench.alternatives]]:
  *
  *   python          MiniPandas eager interpreter ("Python/Pandas")
  *   grizzly_duck_tN O0 SQL on DuckDB, N threads  (Grizzly-simulated)
  *   pytond_duck_tN  O4 SQL on DuckDB, N threads  (PyTond)
  *   grizzly_spark   O0 SQL via spark.sql          (Grizzly-sim / Hyper-stand-in)
  *   pytond_spark    O4 SQL via spark.sql          (PyTond / Hyper-stand-in)
  *   pytond_sparkdf  O4 TondIR→Catalyst            (PyTond / LingoDB-stand-in)
  *
  * Emits one row per query to bench_results/tpch.tsv plus geomean summary
  * rows matching the §V-B headline numbers.
  */
class TpchBench extends AnyFunSuite {
  import Bench._

  private val header = "query" +: alternatives.map(_._1)

  private val rows = scala.collection.mutable.ArrayBuffer[Seq[Double]]()

  reset("tpch", "tpch_summary")

  for (p <- TestData.tpch) {
    test(s"bench ${p.id}") {
      val r = timeAlternatives(p)
      rows += r
      record("tpch", header, p.id +: r)
    }
  }

  test("geomean summary (§V-B headline numbers)") {
    require(rows.nonEmpty)
    def gm(i: Int) = geomean(rows.map(_(i)).toSeq)
    val py = gm(0)
    record("tpch_summary",
      Seq("metric", "value"),
      Seq("geomean_speedup_pytond_duck_1t_vs_python", py / gm(2)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_speedup_pytond_duck_4t_vs_python", py / gm(4)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_speedup_pytond_spark_vs_python", py / gm(6)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_speedup_pytond_sparkdf_vs_python", py / gm(7)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_opt_gain_duck_1t", gm(1) / gm(2)))   // Grizzly-sim / PyTond
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_opt_gain_spark", gm(5) / gm(6)))
  }
}
