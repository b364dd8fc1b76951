package repro.perfbench

import scala.collection.mutable

/** Spans and counts recorded around calls into the program's layers.
  *
  * A span is one call: name, start, end (seconds since the trace began) and
  * the span that encloses it. Spans of one pipeline round share its round
  * number; round 0 is set-up. With `enabled = false` nothing is recorded and
  * `span` only runs its body, so untraced runs time the same code.
  */
final class Trace(val enabled: Boolean) {
  import Trace._

  private val t0     = System.nanoTime()
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[(Int, String), Double]
  private var open   = List.empty[Int]
  private var nextId = 0
  var round: Int = 0

  def now(): Double = (System.nanoTime() - t0) / 1e9

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val start = now()
      try body
      finally {
        open = open.tail
        spans += Span(id, name, start, now(), parent, round)
      }
    }

  /** Add `v` to a per-round count (counts of the same name accumulate). */
  def count(name: String, v: Double): Unit =
    if (enabled) counts((round, name)) = counts.getOrElse((round, name), 0.0) + v

  /** Per round: total seconds spent in spans of each name. */
  def secondsByName(r: Int): Map[String, Double] =
    spans.iterator.filter(_.round == r).toSeq.groupMapReduce(_.name)(_.seconds)(_ + _)

  def countsOf(r: Int): Map[String, Double] =
    counts.iterator.collect { case ((`r`, n), v) => n -> v }.toMap

  def toJson: String = {
    val sp = spans.sortBy(_.id).map { s =>
      s"""{"id":${s.id},"name":${Json.str(s.name)},"start":${s.start},"end":${s.end},""" +
        s""""parent":${s.parent},"round":${s.round}}"""
    }
    val cs = counts.toSeq.map { case ((r, n), v) => s"""{"round":$r,"name":${Json.str(n)},"value":$v}""" }
    s"""{"spans":[${sp.mkString(",\n")}],\n"counts":[${cs.mkString(",\n")}]}"""
  }
}

object Trace {
  final case class Span(id: Int, name: String, start: Double, end: Double, parent: Int, round: Int) {
    def seconds: Double = end - start
  }
}

/** The little JSON the harness writes: strings and finite numbers. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not finite")
    d.toString
  }
}
