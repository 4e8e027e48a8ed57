package perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder. A span has a name, start and end, and the span
  * that was open when it started. Spans are kept until the benchmark ends
  * and then written out as one JSON document.
  */
final class Trace {
  import Trace.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[T](name: String)(body: => T): T = {
    val id = spans.length
    spans += Span(id, open.headOption.getOrElse(-1), name, System.nanoTime(), -1L)
    open = id :: open
    try body
    finally {
      open = open.tail
      spans(id) = spans(id).copy(endNs = System.nanoTime())
    }
  }

  /** The most recently finished span with this name. */
  def last(name: String): Span = spans.findLast(_.name == name).getOrElse(sys.error(s"no span $name"))

  /** Direct children of a span. */
  def children(s: Span): Seq[Span] = spans.iterator.filter(_.parent == s.id).toSeq

  /** Total ms of the named children of `s`. */
  def childMs(s: Span, name: String): Double = children(s).filter(_.name == name).map(_.ms).sum

  /** Time of `s` that no child span covers. */
  def selfMs(s: Span): Double = s.ms - children(s).map(_.ms).sum

  def toJson: String =
    Json(spans.map(s => Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs)).toSeq)
}

object Trace {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }
}
