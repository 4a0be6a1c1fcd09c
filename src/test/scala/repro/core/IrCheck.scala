package repro.core

import scala.collection.mutable
import TondIR._

/** Well-formedness of a TondIR program, as the emitters assume it:
  *
  *  - every referenced var is bound (by a relation, VALUES or assignment
  *    atom) at its level or an enclosing one;
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
      def refs(t: Term, bound: Set[String]): Unit =
        (t.vars -- bound).foreach(v => bad(s"$v is referenced but not bound"))
      /** Check one body level; returns the vars bound at it or further out. */
      def level(atoms: Vector[Atom], outer: Set[String], outerRel: Set[String]): Set[String] = {
        val rel = outerRel ++ atoms.flatMap { case RelAtom(_, vs, _) => vs; case ConstAtom(vs, _) => vs; case _ => Nil }
        val assigned = atoms.collect { case AssignAtom(v, _) => v }.toSet
        (assigned & rel).foreach(v => bad(s"$v is both assigned and bound by a relation atom"))
        val bound = outer ++ rel ++ assigned
        atoms.foreach {
          case RelAtom(name, vs, on) =>
            arity.get(name).orElse(cat.schemas.get(name).map(_.size)) match {
              case None                    => bad(s"$name is neither an earlier rule nor in the catalog")
              case Some(n) if n != vs.size => bad(s"$name has arity $n but is accessed with ${vs.size} vars")
              case _                       =>
            }
            on.foreach { case (_, t) => refs(t, bound) }
          case PredAtom(t)      => refs(t, bound)
          case AssignAtom(_, t) => refs(t, bound)
          case ExistsAtom(b, _) => level(b, bound, rel)
          case _: ConstAtom     =>
        }
        bound
      }
      val bound = level(r.body, Set.empty, Set.empty)
      r.head.cols.foreach { case (_, t) => refs(t, bound) }
      (r.head.group.toSet -- bound).foreach(v => bad(s"group var $v is not bound"))
      r.head.sort.foreach { case (c, _) => if (!r.head.colNames.contains(c)) bad(s"sort key $c is not a head column") }
      arity(r.head.rel) = r.head.cols.size
    }
    out.result()
  }
}
