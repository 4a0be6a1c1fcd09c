package repro.core

import scala.collection.mutable
import TondIR._

/** Well-formedness of a TondIR program, as the emitters assume it, stated
  * over [[TondIR.Scope]]:
  *
  *  - every body level (rule or `exists` body) has a relation or VALUES atom;
  *  - every referenced var is bound at its level or an enclosing one;
  *  - every relation atom's arity matches its producer's head (an earlier
  *    rule) or its catalog schema;
  *  - every sort key is a head column;
  *  - no var is both assigned and bound by a relation or VALUES atom at its
  *    level or an enclosing one (the emitters would ignore the assignment).
  */
object IrCheck {

  /** The violations of `p`, one message each; empty if it is well formed. */
  def violations(p: Program, cat: Catalog): Vector[String] = {
    val out = Vector.newBuilder[String]
    val arity = mutable.HashMap[String, Int]()
    for (r <- p.rules) {
      def bad(msg: String): Unit = out += s"${r.head.rel}: $msg"
      def refs(t: Term, s: Scope): Unit = t.vars.filterNot(s.sees).foreach(v => bad(s"$v is referenced but not bound"))
      def level(s: Scope): Unit = {
        if (!s.atoms.exists { case _: RelAtom | _: ConstAtom => true; case _ => false })
          bad(s"body level has no relation or VALUES atom: ${s.atoms.map(show).mkString(", ")}")
        s.assignOf.keys.filter(s.bindsRel).foreach(v => bad(s"$v is both assigned and bound by a relation atom"))
        s.atoms.foreach {
          case RelAtom(name, vs, on) =>
            arity.get(name).orElse(cat.schemas.get(name).map(_.size)) match {
              case None                    => bad(s"$name is neither an earlier rule nor in the catalog")
              case Some(n) if n != vs.size => bad(s"$name has arity $n but is accessed with ${vs.size} vars")
              case _                       =>
            }
            on.foreach { case (_, t) => refs(t, s) }
          case PredAtom(t)      => refs(t, s)
          case AssignAtom(_, t) => refs(t, s)
          case e: ExistsAtom    => level(s.sub(e))
          case _: ConstAtom     =>
        }
      }
      val root = new Scope(r.body)
      level(root)
      r.head.cols.foreach { case (_, t) => refs(t, root) }
      r.head.group.distinct.filterNot(root.sees).foreach(v => bad(s"group var $v is not bound"))
      r.head.sort.foreach { case (c, _) => if (!r.head.colNames.contains(c)) bad(s"sort key $c is not a head column") }
      arity(r.head.rel) = r.head.cols.size
    }
    out.result()
  }
}
