package repro.perf

import java.io.{File, FileInputStream, PrintWriter}
import java.security.MessageDigest
import repro.core.TondIR._

/** Raised when a run must stop: its inputs or its counts cannot be trusted. */
final class BenchFailure(msg: String) extends RuntimeException(msg)

object Check {
  def apply(ok: Boolean, msg: => String): Unit = if (!ok) throw new BenchFailure(msg)
}

/** Raw measurements of one phase, one tab-separated record a line:
  * `kind  prog  name  rep  value...`. run.py does all the statistics. */
final class Record(file: File) {
  private val w = new PrintWriter(file, "UTF-8")
  private def clean(s: String) = s.replaceAll("[\t\r\n]+", " ")

  def line(kind: String, prog: String, name: String, rep: Int, values: Any*): Unit =
    w.println((Seq(kind, prog, name, rep.toString) ++ values.map(v => clean(String.valueOf(v)))).mkString("\t"))

  /** A timed sample in milliseconds. */
  def sample(prog: String, name: String, rep: Int, ns: Long): Unit = line("sample", prog, name, rep, ns / 1e6)
  /** A count; run.py requires every rep of a (prog, name) to agree. */
  def count(prog: String, name: String, rep: Int, v: Long): Unit = line("count", prog, name, rep, v)
  /** A value measured once per rep that is allowed to vary (MB, phase ms). */
  def value(prog: String, name: String, rep: Int, v: Double): Unit = line("value", prog, name, rep, v)
  def setup(name: String, seconds: Double): Unit = line("setup", "-", name, 0, seconds)
  /** Answer gate outcome of one (program, path): ok, wrong or error. */
  def gate(prog: String, path: String, status: String, detail: String = ""): Unit =
    line("gate", prog, path, 0, status, detail)
  def close(): Unit = w.close()
}

/** In-memory spans around the benchmark's calls into each layer, written out
  * when the phase ends. Off in untraced runs: `apply` is then just `f`. */
final class Trace(val on: Boolean) {
  import Trace.Span
  private val spans = scala.collection.mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def apply[T](name: String, prog: String)(f: => T): T =
    if (!on) f
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime
      try f
      finally {
        val t1 = System.nanoTime
        open = open.tail
        spans += Span(id, parent, name, prog, t0, t1)
      }
    }

  def writeTo(r: Record): Unit =
    spans.foreach(s => r.line("span", s.prog, s.name, 0, s.id, s.parent, s.start, s.end))
}

object Trace {
  private final case class Span(id: Int, parent: Int, name: String, prog: String, start: Long, end: Long)
}

object Util {
  def nanos[T](f: => T): (T, Long) = { val t0 = System.nanoTime; val v = f; (v, System.nanoTime - t0) }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean].getCurrentThreadAllocatedBytes

  /** Seconds from JVM start to now. */
  def sinceJvmStart(): Double =
    (System.currentTimeMillis - java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  /** Peak resident set of this process in MB (VmHWM). */
  def peakRssMb(): Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().find(_.startsWith("VmHWM:")).map(_.split("\\s+")(1).toDouble / 1024).getOrElse(-1.0)
    finally src.close()
  }

  /** SHA-256 over the bytes of a Parquet directory's data files, in name order. */
  def sha256(dir: File): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val files = Option(dir.listFiles()).getOrElse(Array.empty[File]).filter(_.getName.endsWith(".parquet")).sortBy(_.getName)
    Check(files.nonEmpty, s"no Parquet files in $dir")
    val buf = new Array[Byte](1 << 16)
    files.foreach { f =>
      val in = new FileInputStream(f)
      try Iterator.continually(in.read(buf)).takeWhile(_ >= 0).foreach(n => md.update(buf, 0, n))
      finally in.close()
    }
    md.digest().map(b => f"$b%02x").mkString
  }

  /** IR size: (rules, atoms, relation atoms), counting inside exists bodies. */
  def irSize(p: Program): (Long, Long, Long) = {
    def atoms(b: Vector[Atom]): Long = b.map {
      case ExistsAtom(in, _) => 1 + atoms(in)
      case _                 => 1L
    }.sum
    (p.rules.size.toLong, p.rules.map(r => atoms(r.body)).sum,
     p.rules.map(_.body.map(allRelAtoms(_).size.toLong).sum).sum)
  }

  /** A one-line description of an exception for the gate record. */
  def describe(e: Throwable): String = {
    val m = Option(e.getMessage).getOrElse("").linesIterator.toSeq.headOption.getOrElse("")
    s"${e.getClass.getSimpleName}: ${m.take(200)}"
  }
}
