package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData.{duckSql, sparkGen}

/** T8 — Fig. 10: cumulative effect of the optimizations on representative
  * workloads, starting from the Grizzly-simulated baseline:
  *
  *   O0 none · O1 +dead-code elimination · O2 +group-aggregate elimination ·
  *   O3 +self-join elimination · O4 +rule inlining
  *
  * Measured on the DuckDB backend (4 threads) and the Catalyst backend. */
class OptBreakdownBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("workload", "backend", "O0_ms", "O1_ms", "O2_ms", "O3_ms", "O4_ms")

  reset("opt_breakdown")

  private val targets = Seq("Q3", "Q9", "CrimeIndex", "N3", "HybridCovar", "HybridMatmul")

  for (p <- targets.map(program)) {
    test(s"optimization breakdown ${p.id} (DuckDB)") {
      record("opt_breakdown", header, Seq(p.id, "duckdb") ++ (0 to 4).map(l => time(duckSql, p, l)))
    }
    test(s"optimization breakdown ${p.id} (Catalyst)") {
      record("opt_breakdown", header, Seq(p.id, "spark") ++ (0 to 4).map(l => time(sparkGen, p, l)))
    }
  }
}
