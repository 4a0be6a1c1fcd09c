package repro.perf

import java.io.File

/** Entry point of one benchmark phase (run.py starts one JVM per phase):
  * `spark|duck --workload W --seed N --work DIR --trace 0|1`, and for `duck`
  * also `--budget S`. Writes raw records to `DIR/<phase>.tsv`;
  * exits 3 when a determinism or input check fails, 1 on any other error. */
object Main {
  def main(args: Array[String]): Unit = {
    val phase = args.head
    val opt = args.tail.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    val w = opt("workload")
    require(Workloads.names.contains(w), s"unknown workload $w")
    val work = new File(opt("work"))
    val rec = new Record(new File(work, s"$phase.tsv"))
    val trace = new Trace(opt("trace") == "1")
    val code =
      try {
        phase match {
          case "spark" => SparkPhase.run(w, opt("seed").toLong, work, trace, rec)
          case "duck"  => DuckPhase.run(w, opt("seed").toLong, work, opt("budget").toDouble, trace, rec)
        }
        0
      } catch {
        case e: BenchFailure => System.err.println(s"BENCHMARK CHECK FAILED: ${e.getMessage}"); 3
        case e: Throwable    => e.printStackTrace(); 1
      } finally rec.close()
    sys.exit(code)
  }
}
