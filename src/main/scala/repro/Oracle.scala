package repro

import java.nio.file.{Files, Path}
import java.sql.{DriverManager, Connection}
import java.util.Comparator
import scala.util.Using
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

/** DuckDB correctness oracle.
  *
  * ``assertRowsEquivalentOn(conn, cols, rows, sql)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over the tables loaded into ``conn`` and asserts
  * the rows match. This catches wrong results from a rewritten plan or a
  * custom operator — "it ran" is not "it is correct".
  *
  * Extensions over the stock oracle (documented in DESIGN.md):
  *  - tables are created with types derived from the Spark schema (so
  *    reference SQL can aggregate/compare without explicit casts);
  *  - numeric cells compare with a small absolute+relative tolerance:
  *    different engines sum floating-point columns in different orders.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def duckType(dt: DataType): String = dt match {
    case LongType | IntegerType | ShortType | ByteType => "BIGINT"
    case DoubleType | FloatType | _: DecimalType       => "DOUBLE"
    case DateType                                      => "DATE"
    case TimestampType                                 => "TIMESTAMP"
    case BooleanType                                   => "BOOLEAN"
    case _                                             => "VARCHAR"
  }

  /** Load a Spark DataFrame into DuckDB as a typed table: Spark writes the
    * rows to a temporary Parquet directory, DuckDB reads it with
    * `read_parquet` and casts each column to the type of [[duckType]], and
    * the directory is deleted. (The JDBC appender of duckdb_jdbc 1.0.0 can
    * append neither a DATE nor a NULL.) */
  def loadTable(conn: Connection, name: String, df: DataFrame): Unit = {
    val dir = Files.createTempDirectory(s"oracle-$name-")
    try {
      df.write.mode("overwrite").parquet(dir.toString)
      val cols = df.schema.fields.map(f => s"CAST(${f.name} AS ${duckType(f.dataType)}) AS ${f.name}")
      conn.createStatement.execute(
        s"CREATE OR REPLACE TABLE $name AS SELECT ${cols.mkString(", ")} FROM read_parquet('$dir/*.parquet')")
    } finally Using(Files.walk(dir))(_.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))).get
  }

  private sealed trait Cell
  private final case class NumCell(v: Double) extends Cell { override def toString = f"$v%.6f" }
  private final case class StrCell(s: String) extends Cell { override def toString = s }

  private def toCell(v: Any): Cell = v match {
    case null                        => StrCell("∅")
    case d: Double                   => NumCell(d)
    case f: Float                    => NumCell(f.toDouble)
    case bd: java.math.BigDecimal    => NumCell(bd.doubleValue)
    case bd: BigDecimal              => NumCell(bd.doubleValue)
    case n: java.lang.Number         => NumCell(n.doubleValue)
    case x                           => StrCell(x.toString)
  }

  private def cellsMatch(a: Cell, b: Cell): Boolean = (a, b) match {
    case (NumCell(x), NumCell(y)) =>
      math.abs(x - y) <= 1e-6 + 1e-8 * math.max(math.abs(x), math.abs(y))
    case (NumCell(x), StrCell(s)) => s == "∅" && x.isNaN
    case (StrCell(s), NumCell(y)) => s == "∅" && y.isNaN
    case (StrCell(x), StrCell(y)) => x == y
  }

  private def rowsMatch(a: Seq[Cell], b: Seq[Cell]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) => cellsMatch(x, y) }

  /** Canonicalize: reorder columns alphabetically, convert to cells. */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Cell]] = {
    val order = cols.map(_.toLowerCase).sorted
    val idx   = order.map(c => cols.indexWhere(_.toLowerCase == c))
    rows.map(r => idx.map(i => toCell(r.get(i))))
      .sortBy(_.map {
        // coarse numeric sort key: ties resolved by the tolerant matcher
        case NumCell(v) => f"${math.rint(v * 100) / 100}%020.2f"
        case StrCell(s) => s
      }.mkString(""))
  }

  /** Compare two canonicalized row sets with numeric tolerance; fall back to
    * greedy multiset matching when coarse sort keys disagree at boundaries. */
  private def equivalent(a: Seq[Seq[Cell]], b: Seq[Seq[Cell]]): Boolean = {
    if (a.size != b.size) return false
    if (a.zip(b).forall { case (x, y) => rowsMatch(x, y) }) return true
    val remaining = scala.collection.mutable.ArrayBuffer(b: _*)
    a.forall { row =>
      val i = remaining.indexWhere(rowsMatch(row, _))
      if (i < 0) false else { remaining.remove(i); true }
    }
  }

  def connect(): Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    DriverManager.getConnection("jdbc:duckdb:")
  }

  /** Run a query on an existing DuckDB connection → (columns, rows). */
  def query(conn: Connection, sql: String): (Seq[String], Seq[Row]) = {
    val rs   = conn.createStatement.executeQuery(sql)
    val meta = rs.getMetaData
    val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
    val rows = Iterator.continually(rs).takeWhile(_.next())
      .map(r => Row.fromSeq((1 to cols.size).map(r.getObject))).toSeq
    (cols, rows)
  }

  /** Assert result rows (columns, rows) match reference SQL results on a
    * pre-loaded connection — the one comparator behind every assertion. */
  def assertRowsEquivalentOn(conn: Connection, cols: Seq[String], rows: Seq[Seq[Any]], sql: String): Unit = {
    val (dCols, dRows) = query(conn, sql)
    require(dCols.map(_.toLowerCase).toSet == cols.map(_.toLowerCase).toSet,
      s"column mismatch: got=${cols.sorted} duckdb=${dCols.sorted} — alias every output column")
    val got = canon(rows.map(Row.fromSeq), cols)
    val exp = canon(dRows, dCols)
    require(equivalent(got, exp),
      s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
      s"  first rows got:   ${got.take(3).map(_.mkString("[", ", ", "]"))}\n" +
      s"  first duck rows:  ${exp.take(3).map(_.mkString("[", ", ", "]"))}")
  }
}
