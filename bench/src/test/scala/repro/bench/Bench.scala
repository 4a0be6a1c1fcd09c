package repro.bench

import java.io.File
import java.nio.file.Files
import org.apache.commons.io.FileUtils
import org.apache.spark.sql.DataFrame
import repro.{EnginePath, InputSet, Prog, SparkSpec, TestData}
import repro.TestData.{duckSql, miniPandas, sparkGen, sparkSql}
import repro.data.{NotebookData, TpchData}

/** Shared benchmark harness.
  *
  * Scale factor and iteration counts come from the environment
  * (`REPRO_BENCH_SF`, default 0.1 ≈ 100 MB; `REPRO_BENCH_ITERS`,
  * `REPRO_BENCH_WARMUP`). Inputs are written once per run as Parquet to a
  * fresh temporary directory — Spark reads them as files (a fair cold-ish
  * scan, and it sidesteps cached-plan interference) and DuckDB loads them
  * through `Oracle.loadTable`. Programs run on the engine paths of
  * `TestData.paths`, and each path judges the answer it timed, as in the
  * test suites. The DuckDB thread count is set per measurement (`SET
  * threads TO n`), which provides the paper's 1..4-thread sweeps.
  *
  * Timing: `best of iters` after `warmup` warm-up rounds, reported in ms
  * (the paper reports the mean of 5 rounds after 5 warm-ups at SF=1; we
  * shrink both to keep the full table regeneration under an hour).
  * Results are printed as table rows and appended to TSVs in
  * `bench_results/` under the build root, the forked test JVM's working
  * directory.
  */
object Bench {
  val SF: Double  = sys.env.getOrElse("REPRO_BENCH_SF", "0.1").toDouble
  val Iters: Int  = sys.env.getOrElse("REPRO_BENCH_ITERS", "2").toInt
  val Warmup: Int = sys.env.getOrElse("REPRO_BENCH_WARMUP", "1").toInt

  lazy val spark = SparkSpec.shared

  private val resultDir = new File("bench_results")

  /** `frames` written as Parquet to a temporary directory (deleted when the
    * JVM exits) and read back from it. */
  def parquet(frames: Map[String, DataFrame]): Map[String, DataFrame] = {
    val dir = Files.createTempDirectory("bench-data-").toFile
    sys.addShutdownHook(FileUtils.deleteQuietly(dir))
    frames.map { case (n, df) =>
      val path = new File(dir, n).getPath
      df.write.parquet(path)
      n -> spark.read.parquet(path)
    }
  }

  /** All base tables (TPC-H + notebook/hybrid). */
  lazy val inputs = new InputSet(parquet(TpchData.tables(spark, SF) ++ NotebookData.tables(spark, SF)))

  def program(id: String): Prog = TestData.programs.find(_.id == id).get

  // ------------------------------------------------------------- measuring
  /** Best time in ms of `p` at `level` on `path` over `in`, with DuckDB at
    * `threads` threads. The path's setup is not timed, and the path judges
    * the last answer. DuckDB runs are cheap but sit inside a JVM running
    * Spark, so they take extra rounds to shake off GC/scheduler noise. */
  def time(path: EnginePath, p: Prog, level: Int, threads: Int = 4, in: InputSet = inputs): Double = {
    in.duck.createStatement.execute(s"SET threads TO $threads")
    val call = path.setup(p, level, in)
    var ans: EnginePath.Answer = null
    val (warmup, iters) = if (path eq duckSql) (math.max(Warmup, 2), math.max(Iters, 5)) else (Warmup, Iters)
    (1 to warmup).foreach(_ => ans = call())
    val best = (1 to iters).map { _ => val t0 = System.nanoTime(); ans = call(); (System.nanoTime() - t0) / 1e6 }.min
    path.judge(p, level, in, ans)
    best
  }

  /** The alternatives of Figs. 3–6: (column, path, level, DuckDB threads).
    * O0 is the Grizzly-simulated baseline, O4 is PyTond; Spark SQL text
    * stands in for Hyper and SparkGen for LingoDB. */
  val alternatives: Seq[(String, EnginePath, Int, Int)] = Seq(
    ("python_ms", miniPandas, 0, 4),
    ("grizzly_duck_t1", duckSql, 0, 1), ("pytond_duck_t1", duckSql, 4, 1),
    ("grizzly_duck_t4", duckSql, 0, 4), ("pytond_duck_t4", duckSql, 4, 4),
    ("grizzly_spark", sparkSql, 0, 4), ("pytond_spark", sparkSql, 4, 4),
    ("pytond_sparkdf", sparkGen, 4, 4))

  def timeAlternatives(p: Prog): Seq[Double] =
    alternatives.map { case (_, path, level, threads) => time(path, p, level, threads) }

  // ---------------------------------------------------------------- output
  /** Start the TSVs of `tables` afresh. */
  def reset(tables: String*): Unit = tables.foreach(t => new File(resultDir, s"$t.tsv").delete())

  def record(table: String, header: Seq[String], row: Seq[Any]): Unit = {
    resultDir.mkdirs()
    val f = new File(resultDir, s"$table.tsv")
    val fresh = !f.exists()
    def fmt(v: Any): String = v match {
      case d: Double if math.abs(d) < 1.0 && d != 0.0 => f"$d%.4f"
      case d: Double                                  => f"$d%.1f"
      case x                                          => String.valueOf(x)
    }
    val w = new java.io.FileWriter(f, true)
    try {
      if (fresh) w.write(header.mkString("\t") + "\n")
      w.write(row.map(fmt).mkString("\t") + "\n")
    } finally w.close()
    println(s"[$table] " + header.zip(row).map { case (h, v) => s"$h=${fmt(v)}" }.mkString("  "))
  }

  def geomean(xs: Seq[Double]): Double =
    math.exp(xs.map(x => math.log(math.max(x, 1e-9))).sum / xs.size)
}
