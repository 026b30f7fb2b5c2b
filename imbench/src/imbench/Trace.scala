package imbench

import scala.collection.mutable.ArrayBuffer

/** A span: one call into a layer, timed from the benchmark side. Spans of
  * one query share `query`; `parent` is the index of the enclosing span
  * in [[Tracer.spans]], or -1.
  */
final case class Span(name: String, query: Int, parent: Int, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** Records spans around calls made from one thread. When `on` is false
  * `span` only runs its body, so traced and untraced queries share code.
  */
final class Tracer(val on: Boolean) {
  val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var query = -1

  def newQuery(id: Int): Unit = query = id

  def span[T](name: String)(body: => T): T =
    if (!on) body
    else {
      val idx = spans.length
      spans += Span(name, query, open.headOption.getOrElse(-1), System.nanoTime(), 0L)
      open = idx :: open
      try body
      finally {
        spans(idx) = spans(idx).copy(endNs = System.nanoTime())
        open = open.tail
      }
    }

  /** Indices of the spans with this name: those inside timed queries
    * (query id >= 0) if there are any, else all of them.
    */
  private def named(name: String): Seq[Int] = {
    val all = spans.indices.filter(spans(_).name == name)
    val timed = all.filter(spans(_).query >= 0)
    if (timed.nonEmpty) timed else all
  }

  /** Durations (ns) of the spans with this name. */
  def durations(name: String): Seq[Long] = named(name).map(spans(_).ns)

  /** Self time (ns) of each span with this name: its duration minus the
    * time its direct children cover (children run sequentially).
    */
  def selfTimes(name: String): Seq[Long] =
    named(name).map(i => spans(i).ns - spans.iterator.filter(_.parent == i).map(_.ns).sum)

  def toJson: String = spans.map { s =>
    s"""{"name":"${s.name}","query":${s.query},"parent":${s.parent},"start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}
