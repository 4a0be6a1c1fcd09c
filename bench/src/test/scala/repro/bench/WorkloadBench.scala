package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** T3/T4 — Fig. 5 and Fig. 6: the data-science workloads (Crime Index,
  * Birth Analysis, N3, N9, hybrid matmul/covar ± filtered) across the same
  * alternative set as [[TpchBench]]. */
class WorkloadBench extends AnyFunSuite {
  import Bench._

  private val header = "workload" +: alternatives.map(_._1)

  reset("workloads")

  for (p <- TestData.notebooks) {
    test(s"bench ${p.id}") {
      record("workloads", header, p.id +: timeAlternatives(p))
    }
  }
}
