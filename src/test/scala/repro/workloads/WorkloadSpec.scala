package repro.workloads

import repro.{Prog, SparkSpec, TestData}

/** Oracle-checked correctness of workload programs on every engine path of
  * `TestData.paths` at each of its levels: SparkGen and generated DuckDB SQL
  * at O0–O4, generated Spark SQL at O0 and O4, and the MiniPandas baseline,
  * each against hand-written reference SQL on DuckDB over the same rows. */
abstract class WorkloadSpec(programs: Seq[Prog]) extends SparkSpec {
  for (p <- programs; path <- TestData.paths; level <- path.levels)
    test(s"${p.id}: ${path.label(level)} matches reference SQL") {
      path.check(p, level, TestData.inputs)
    }
}

/** The 22 TPC-H queries. */
class TpchSpec extends WorkloadSpec(TestData.tpch)

/** The data-science notebooks (Crime Index, Birth Analysis, N3, N9) and the
  * hybrid matrix programs. */
class NotebookSpec extends WorkloadSpec(TestData.notebooks)
