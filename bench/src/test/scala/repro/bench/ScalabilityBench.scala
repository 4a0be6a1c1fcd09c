package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData.duckSql

/** T5/T6 — Fig. 7 and Fig. 8: thread scalability of the PyTond/DuckDB
  * backend (1..4 threads) for representative TPC-H queries (Q1, Q4, Q6,
  * Q13) and hybrid workloads. Speedups vs 1 thread are derived in
  * EXPERIMENTS.md from these absolute times. */
class ScalabilityBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("workload", "t1_ms", "t2_ms", "t3_ms", "t4_ms",
    "speedup_t2", "speedup_t3", "speedup_t4")

  reset("scalability")

  private val targets = Seq("Q1", "Q4", "Q6", "Q13", "CrimeIndex", "N3", "N9", "HybridMatmul", "HybridCovar")

  for (p <- targets.map(program)) {
    test(s"scalability ${p.id}") {
      val ts = (1 to 4).map(n => time(duckSql, p, level = 4, threads = n))
      record("scalability", header,
        p.id +: (ts ++ Seq(ts(0) / ts(1), ts(0) / ts(2), ts(0) / ts(3))))
    }
  }
}
