package repro.perf

import java.io.{File, FileInputStream, ObjectInputStream}
import repro.Oracle
import repro.core.{Optimizer, Pipeline, SqlGen}
import repro.core.SqlGen.{DuckDialect, SparkDialect}
import repro.frontend.Lower
import Util._

/** Second phase of a run, in a JVM that never starts Spark: check the Parquet
  * inputs against the manifest, load them into DuckDB (one thread) with
  * `read_parquet`, compile every program twice, time the user calls, then
  * gate every timed answer, DuckDB's and Spark's, against the reference SQL. */
object DuckPhase {
  private type Answer = (Vector[String], Vector[Vector[Any]])

  /** Everything one compile of a program produces, for the determinism check. */
  private final case class Compiled(levels: Vector[repro.core.TondIR.Program],
                                    duck0: String, duck4: String, spark4: String)

  /** Untimed compiles of every program before timing starts. */
  val CompileWarmup = 3
  /** Timed rounds over all programs are repeated for the budget, and at least this often. */
  val MinReps = 4
  /** The DuckDB load is repeated this often and its median reported. */
  val LoadReps = 3

  private def compileAll(p: Prog): Compiled = {
    val ir = Lower.lower(p.df, p.cat)
    val levels = (0 to 4).map(l => Optimizer.optimize(ir, p.cat, l)).toVector
    Compiled(ir +: levels.tail, SqlGen.programSql(levels(0), p.cat, DuckDialect),
      SqlGen.programSql(levels(4), p.cat, DuckDialect), SqlGen.programSql(levels(4), p.cat, SparkDialect))
  }

  def run(w: String, seed: Long, work: File, budgetS: Double, trace: Trace, rec: Record): Unit = {
    rec.setup("duck.jvm_boot_s", sinceJvmStart())
    val data = new File(work, "data")
    val src = scala.io.Source.fromFile(new File(data, "MANIFEST.tsv"), "UTF-8")
    val manifest = try src.getLines().map(_.split("\t")).map(a => (a(0), a(1).toLong, a(2))).toVector
                   finally src.close()
    val (_, verifyNs) = nanos(manifest.foreach { case (n, _, sha) =>
      Check(sha256(new File(data, n)) == sha, s"input $n does not match its manifest checksum") })
    rec.setup("duck.verify_s", verifyNs / 1e9)

    val conn = Oracle.connect()
    def exec(sql: String): Unit = { val st = conn.createStatement; try st.execute(sql) finally st.close() }
    exec("SET threads TO 1")
    val loads = (0 until LoadReps).map { _ =>
      nanos(manifest.foreach { case (n, rows, _) =>
        exec(s"CREATE OR REPLACE TABLE $n AS SELECT * FROM read_parquet('${new File(data, n).getPath}/*.parquet')")
        val got = Oracle.query(conn, s"SELECT count(*) FROM $n")._2.head.getLong(0)
        Check(got == rows, s"DuckDB loaded $got rows of $n, the manifest says $rows")
      })._2 / 1e9
    }
    loads.foreach(s => rec.value("-", "duck_load_rep_s", 0, s))
    rec.setup("duck_load_s", median(loads))

    val progs = Workloads.programs(w, seed)
    val broken = scala.collection.mutable.Set.empty[(String, String)]
    def fail(p: Prog, path: String, e: Throwable): Unit =
      if (broken.add((p.id, path))) rec.gate(p.id, path, "error", describe(e))
    val paths = Vector("duck_o4", "duck_o0")

    // Determinism: two compiles of every program must agree exactly.
    val compiled = progs.flatMap { p =>
      try {
        val a = compileAll(p); val b = compileAll(p)
        Check(a == b, s"${p.id}: two compiles gave different IR or SQL")
        Check(Pipeline.toSql(p.df, p.cat, DuckDialect, 4) == a.duck4,
          s"${p.id}: Pipeline.toSql differs from Lower → Optimizer → SqlGen")
        Some(p.id -> a)
      } catch {
        case e: BenchFailure => throw e
        case e: Exception    => paths.foreach(fail(p, _, e)); None
      }
    }.toMap
    for ((id, c) <- compiled) {
      val (rules0, atoms0, _) = irSize(c.levels(0))
      rec.count(id, "frontend.rules", 0, rules0)
      rec.count(id, "frontend.atoms", 0, atoms0)
      (1 to 4).foreach(l => rec.count(id, s"opt.o$l.atoms", 0, irSize(c.levels(l))._2))
      val (rules4, _, rel4) = irSize(c.levels(4))
      rec.count(id, "opt.o4.rules", 0, rules4)
      rec.count(id, "opt.o4.rel_atoms", 0, rel4)
      rec.count(id, "sqlgen.duck_o4_bytes", 0, c.duck4.getBytes("UTF-8").length)
      rec.count(id, "sqlgen.duck_o0_bytes", 0, c.duck0.getBytes("UTF-8").length)
    }

    /** Execute `sql` and drain every row; traced runs span the two apart. */
    def drain(sql: String, label: String, prog: String): Answer = {
      val st = conn.createStatement
      try {
        val rs = trace(s"duck.exec.$label", prog)(st.executeQuery(sql))
        trace(s"duck.drain.$label", prog) {
          val n = rs.getMetaData.getColumnCount
          val cols = (1 to n).map(rs.getMetaData.getColumnLabel).toVector
          val rows = Vector.newBuilder[Vector[Any]]
          while (rs.next()) rows += (1 to n).map(rs.getObject).toVector
          (cols, rows.result())
        }
      } finally st.close()
    }

    /** One user call at `level`: SQL generation, execution, drain. */
    def duckCall(p: Prog, level: Int): Answer =
      if (!trace.on) drain(Pipeline.toSql(p.df, p.cat, DuckDialect, level), s"o$level", p.id)
      else trace(s"duck.o$level", p.id) {
        val ir  = trace("frontend.lower", p.id)(Lower.lower(p.df, p.cat))
        val opt = trace(s"opt.o$level", p.id)(Optimizer.optimize(ir, p.cat, level))
        val sql = trace(s"sqlgen.duck.o$level", p.id)(SqlGen.programSql(opt, p.cat, DuckDialect))
        drain(sql, s"o$level", p.id)
      }

    /** The compile-only user call, plus (traced) the layer calls no user call makes. */
    def compileCall(p: Prog): String =
      if (!trace.on) Pipeline.toSql(p.df, p.cat, DuckDialect, 4)
      else {
        val sql = trace("compile.o4", p.id) {
          val ir  = trace("frontend.lower", p.id)(Lower.lower(p.df, p.cat))
          val opt = trace("opt.o4", p.id)(Optimizer.optimize(ir, p.cat, 4))
          trace("sqlgen.duck.o4", p.id)(SqlGen.programSql(opt, p.cat, DuckDialect))
        }
        trace("compile.levels", p.id) {
          val ir = Lower.lower(p.df, p.cat)
          (1 to 3).foreach(l => trace(s"opt.o$l", p.id)(Optimizer.optimize(ir, p.cat, l)))
          val o4 = Optimizer.optimize(ir, p.cat, 4)
          trace("sqlgen.spark", p.id)(SqlGen.programSql(o4, p.cat, SparkDialect))
        }
        sql
      }

    val live = progs.filter(p => compiled.contains(p.id))
    // Warm-up (untimed): the compiler until the JIT has settled, then one
    // call per program and level.
    for (_ <- 1 to CompileWarmup; p <- live) compileAll(p)
    for (p <- live; (path, level) <- paths.zip(Seq(4, 0)) if !broken.contains((p.id, path)))
      try duckCall(p, level) catch { case e: Exception => fail(p, path, e) }

    val answers = scala.collection.mutable.Map.empty[(String, String), Answer]
    val deadline = System.nanoTime + (budgetS * 1e9).toLong
    var rep = 0
    while (rep < MinReps || System.nanoTime < deadline) {
      System.gc()
      for (p <- live) {
        val a0 = allocatedBytes()
        val (_, cns) = nanos(compileCall(p))
        if (!trace.on) {
          rec.value(p.id, "compile_o4.alloc_kb", rep, (allocatedBytes() - a0) / 1024.0)
          rec.sample(p.id, "compile_o4", rep, cns)
        }
        // The hand-written reference SQL on the same engine, data and thread:
        // the yardstick the generated SQL's times are divided by.
        rec.sample(p.id, "duck_ref", rep, nanos(drain(p.refSql, "ref", p.id))._2)
        for ((path, level) <- paths.zip(Seq(4, 0)) if !broken.contains((p.id, path)))
          try {
            val (ans, ns) = nanos(duckCall(p, level))
            rec.sample(p.id, path, rep, ns)
            rec.count(p.id, s"$path.result_rows", rep, ans._2.size)
            if (rep == 0) answers((p.id, path)) = ans
          } catch { case e: Exception => fail(p, path, e) }
      }
      rep += 1
    }
    rec.value("-", "duck.reps", 0, rep)
    rec.value("-", "duck.peak_rss_mb", 0, peakRssMb())
    trace.writeTo(rec)

    // Answer gate, outside every timed region.
    def gate(p: Prog, path: String, ans: Answer): Unit =
      try {
        Oracle.assertRowsEquivalentOn(conn, ans._1, ans._2, p.refSql)
        rec.gate(p.id, path, "ok")
      } catch { case e: Exception => rec.gate(p.id, path, "wrong", describe(e)) }
    for (((id, path), ans) <- answers) gate(progs.find(_.id == id).get, path, ans)
    for (p <- progs) {
      val f = new File(new File(work, "answers"), s"${p.id}.spark.bin")
      if (f.exists()) {
        val in = new ObjectInputStream(new FileInputStream(f))
        val ans = try in.readObject().asInstanceOf[Answer] finally in.close()
        gate(p, "spark_o4", ans)
      }
    }
    conn.close()
  }
}
