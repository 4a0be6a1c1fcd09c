package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Prog, TestData}

/** Pinned compiler output: one SHA-256 per (program, level O0–O4, kind) for
  * all 30 workload programs, where the kind is the IR (`TondIR.show`), the
  * DuckDB SQL or the Spark SQL. A refactoring of the optimizer or the
  * emitters that claims to change nothing must leave every digest as it is;
  * a change that means to alter the output regenerates the file with
  * `sbt "Test/runMain repro.core.SqlDigests"` and says why. */
object SqlDigests {
  val file = "src/test/resources/sql-digests.tsv"

  private def sha256(s: String): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(s.getBytes(UTF_8)).map(b => f"$b%02x").mkString

  /** (program, level, kind) → digest, in a fixed order. */
  def compute(): Vector[((String, Int, String), String)] = for {
    p @ Prog(name, cat, _, _) <- TestData.programs
    ir = p.compile(0)
    level <- (0 to 4).toVector
    opt = Optimizer.optimize(ir, cat, level)
    (kind, text) <- Vector("ir" -> TondIR.show(opt),
                           "duckdb" -> SqlGen.programSql(opt, cat, SqlGen.DuckDialect),
                           "spark" -> SqlGen.programSql(opt, cat, SqlGen.SparkDialect))
  } yield (name, level, kind) -> sha256(text)

  /** The digests pinned in [[file]]. */
  def pinned(): Map[(String, Int, String), String] =
    new String(Files.readAllBytes(Paths.get(file)), UTF_8)
      .linesIterator.map(_.split("\t")).map { case Array(n, l, k, d) => (n, l.drop(1).toInt, k) -> d }.toMap

  /** The keys whose digest differs between `pinned` and `now`, those that
    * only one of them lists included, each as "program at Olevel (kind)". */
  def changed(pinned: Map[(String, Int, String), String], now: Vector[((String, Int, String), String)]): Vector[String] = {
    val keys = now.map(_._1).toSet
    (now.collect { case (key, d) if !pinned.get(key).contains(d) => key } ++
      pinned.keys.filterNot(keys).toVector.sorted).map { case (n, l, k) => s"$n at O$l ($k)" }
  }

  /** Rewrite [[file]] from the current output, printing each key that changes. */
  def main(args: Array[String]): Unit = {
    val now = compute()
    val diffs = changed(if (Files.exists(Paths.get(file))) pinned() else Map.empty, now)
    diffs.foreach(d => println(s"changed: $d"))
    val lines = now.map { case ((n, l, k), d) => s"$n\tO$l\t$k\t$d" }
    Files.write(Paths.get(file), (lines.mkString("\n") + "\n").getBytes(UTF_8))
    println(s"wrote ${lines.size} digests to $file, ${diffs.size} changed")
  }
}

class SqlDigestSpec extends AnyFunSuite {
  test("IR and generated SQL match the pinned digests for all 30 programs at O0–O4") {
    val diffs = SqlDigests.changed(SqlDigests.pinned(), SqlDigests.compute())
    assert(diffs.isEmpty, s"output differs from ${SqlDigests.file} for ${diffs.mkString(", ")}; " +
      "regenerate with: sbt \"Test/runMain repro.core.SqlDigests\"")
  }
}
