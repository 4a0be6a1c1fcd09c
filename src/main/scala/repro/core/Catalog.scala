package repro.core

/** Contextual information used during translation and optimization (§III-A).
  *
  * The paper gathers this from two sources: the DBMS catalog (schemas,
  * key/uniqueness constraints, cardinalities) and `@pytond` decorator
  * arguments (data layout, pivot distinct values). Schemas, unique columns
  * and matrix layouts are represented here; pivot distinct values are
  * arguments of the DSL's `pivotTable` call.
  *
  * @param schemas     base relation name → ordered column names
  * @param uniqueCols  base relation name → columns known unique (PKs etc.)
  */
final case class Catalog(schemas: Map[String, Vector[String]],
                         uniqueCols: Map[String, Set[String]] = Map.empty) {

  def schema(rel: String): Vector[String] =
    schemas.getOrElse(rel, sys.error(s"catalog: unknown relation '$rel'"))

  def withTable(rel: String, cols: Vector[String], unique: Set[String] = Set.empty): Catalog =
    copy(schemas = schemas + (rel -> cols),
         uniqueCols = if (unique.nonEmpty) uniqueCols + (rel -> unique) else uniqueCols)

  /** Register a dense matrix stored as `(id, c0..c{n-1})` with a unique id. */
  def withMatrix(rel: String, nCols: Int): Catalog = {
    val cols = "id" +: (0 until nCols).map(i => s"c$i")
    copy(schemas = schemas + (rel -> cols.toVector),
         uniqueCols = uniqueCols + (rel -> Set("id")))
  }

  /** Register a sparse COO matrix stored as `(i, j, v)`. */
  def withCoo(rel: String): Catalog =
    copy(schemas = schemas + (rel -> Vector("i", "j", "v")))
}

object Catalog {
  val empty: Catalog = Catalog(Map.empty)
}
