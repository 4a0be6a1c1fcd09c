package repro.perf

import java.io.{File, FileOutputStream, ObjectOutputStream, PrintWriter}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.PerfAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{Optimizer, Pipeline, SparkGen}
import repro.frontend.Lower
import Util._

/** Job, stage and task counts and shuffle bytes of the Spark calls made since
  * the last `reset` (traced runs only). */
final class SparkCounts extends SparkListener {
  // Written from the listener bus thread, reset from the caller's.
  @volatile var jobs, stages, tasks, shuffleBytes = 0L
  def reset(): Unit = { jobs = 0; stages = 0; tasks = 0; shuffleBytes = 0 }
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    Option(e.taskMetrics).foreach(m => shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
  }
}

/** First phase of a run, in a JVM of its own: start Spark through the
  * program's shared session, generate the seeded inputs once as Parquet, then
  * time, for each of the workload's Spark programs, the reference SQL through
  * `spark.sql` and one `Pipeline.toSpark(…, 4).collect()` call. Spark's fixed
  * cost of about a second a call leaves no room for repetitions within the
  * run. Answers are saved for the DuckDB phase to gate. */
object SparkPhase {
  /** Traced runs call this many programs a second time and require their
    * Spark job, stage and task counts to repeat. */
  val Recheck = 2

  def run(w: String, seed: Long, work: File, trace: Trace, rec: Record): Unit = {
    rec.setup("spark.jvm_boot_s", sinceJvmStart())
    val (spark, startNs) = nanos {
      val s = repro.SparkSpec.shared
      s.sparkContext.setLogLevel("ERROR")
      s
    }
    rec.setup("spark_start_s", startNs / 1e9)

    val data = new File(work, "data")
    // Tables are written concurrently: each is its own small Spark job, and
    // one at a time they would leave most cores idle.
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    val (manifest, genNs) = nanos {
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
      val writes = Workloads.tables(w, spark, seed).map { case (name, df) => Future {
        val dir = new File(data, name)
        df.write.parquet(dir.getPath)
        (name, parquetRows(dir, spark), sha256(dir))
      } }
      try Await.result(Future.sequence(writes), Duration.Inf) finally pool.shutdown()
    }
    rec.setup("datagen_s", genNs / 1e9)
    val mf = new PrintWriter(new File(data, "MANIFEST.tsv"), "UTF-8")
    try manifest.foreach { case (n, rows, sha) => mf.println(s"$n\t$rows\t$sha") } finally mf.close()
    manifest.foreach { case (n, rows, _) => rec.count(n, "setup.rows", 0, rows) }

    val (inputs, inNs) = nanos(manifest.map { case (n, _, _) =>
      n -> spark.read.parquet(new File(data, n).getPath) }.toMap)
    rec.setup("spark.inputs_s", inNs / 1e9)

    val progs = Workloads.sparkPrograms(w, seed)
    val counts = new SparkCounts
    if (trace.on) spark.sparkContext.addSparkListener(counts)
    val answers = new File(work, "answers"); answers.mkdirs()
    val broken = scala.collection.mutable.Set.empty[String]

    /** One user call; returns the result's columns and rows. Traced runs
      * split the first call of each program into layer spans and count its
      * Spark work; the recheck call (rep 1) is counted but not split. */
    def call(p: Prog, rep: Int): (Array[String], Array[Row]) = {
      // Events of the previous query may still be on the bus.
      if (trace.on) { PerfAccess.drainListenerBus(spark.sparkContext); counts.reset() }
      var df: DataFrame = null
      val (rows, ns) = nanos {
        if (trace.on && rep == 0) trace("spark.o4", p.id) {
          val ir  = trace("frontend.lower", p.id)(Lower.lower(p.df, p.cat))
          val opt = trace("opt.o4", p.id)(Optimizer.optimize(ir, p.cat, 4))
          df = trace("sparkgen.compile", p.id)(SparkGen.compile(opt, inputs, p.cat, spark))
          trace("spark.collect", p.id)(df.collect())
        } else {
          df = Pipeline.toSpark(p.df, p.cat, inputs, spark, 4)
          df.collect()
        }
      }
      if (!trace.on) rec.sample(p.id, "spark_o4", rep, ns)
      else {
        PerfAccess.drainListenerBus(spark.sparkContext)
        rec.count(p.id, "spark.jobs", rep, counts.jobs)
        rec.count(p.id, "spark.stages", rep, counts.stages)
        rec.count(p.id, "spark.tasks", rep, counts.tasks)
        if (rep == 0) {
          val phases = df.queryExecution.tracker.phases
          Seq("optimization", "planning").foreach(ph =>
            rec.value(p.id, s"spark.$ph", rep, phases.get(ph).map(_.durationMs.toDouble).getOrElse(0.0)))
          rec.value(p.id, "spark.shuffle_mb", rep, counts.shuffleBytes / 1e6)
        }
      }
      (df.columns, rows)
    }

    def attempt(p: Prog, rep: Int)(f: ((Array[String], Array[Row])) => Unit): Unit =
      try {
        val (cols, rows) = call(p, rep)
        rec.count(p.id, "spark.result_rows", rep, rows.length)
        f((cols, rows))
      } catch { case e: Exception => broken += p.id; rec.gate(p.id, "spark_o4", "error", describe(e)) }

    // The hand-written reference SQL runs through spark.sql over the same
    // inputs right before each program's call: the yardstick the program's
    // Spark time is divided by, and a warm-up of the operators both share.
    inputs.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    // The first Spark queries of a JVM pay about two seconds of warm-up,
    // which would otherwise land on whichever program the seed put first.
    // The same program (the first by name) absorbs it in every run: both of
    // its calls run once untimed.
    progs.sortBy(_.id).headOption.foreach { p =>
      spark.sql(p.refSql).collect()
      Pipeline.toSpark(p.df, p.cat, inputs, spark, 4).collect()
    }
    System.gc()
    progs.foreach { p =>
      rec.sample(p.id, "spark_ref", 0, nanos(spark.sql(p.refSql).collect())._2)
      attempt(p, 0)(a => save(new File(answers, s"${p.id}.spark.bin"), a._1, a._2))
    }
    if (trace.on) progs.filterNot(p => broken(p.id)).take(Recheck).foreach(p => attempt(p, 1)(_ => ()))
    rec.value("-", "spark.peak_rss_mb", 0, peakRssMb())
    trace.writeTo(rec)
    spark.stop()
  }

  /** Rows written to a Parquet directory, from the file footers. */
  private def parquetRows(dir: File, spark: SparkSession): Long =
    dir.listFiles().filter(_.getName.endsWith(".parquet")).map { f =>
      val in = HadoopInputFile.fromPath(new Path(f.getPath), spark.sparkContext.hadoopConfiguration)
      val r = ParquetFileReader.open(in)
      try r.getRecordCount finally r.close()
    }.sum

  private def save(f: File, cols: Array[String], rows: Array[Row]): Unit = {
    val out = new ObjectOutputStream(new FileOutputStream(f))
    try out.writeObject((cols.toVector, rows.map(_.toSeq.toVector).toVector)) finally out.close()
  }
}
