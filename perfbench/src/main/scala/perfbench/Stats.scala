package perfbench

/** Order statistics for the benchmark's samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Quartiles with the exclusive method of Python's
    * `statistics.quantiles(xs, n=4)`; a single sample is its own quartiles.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "quartiles of no samples")
    val s = xs.sorted.toIndexedSeq
    if (s.length == 1) return (s(0), s(0), s(0))
    val m = s.length + 1
    def q(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), s.length - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }

  /** The tail value: the highest order statistic that still has at least
    * ten samples above it, with its percentile rank. Below 20 samples that
    * statistic would lie under the median, so the maximum is returned,
    * labelled p100.
    */
  def tail(xs: Seq[Double]): (Double, Int) = {
    val s = xs.sorted
    if (s.length < 20) (s.last, 100)
    else (s(s.length - 11), (100 * (s.length - 10)) / s.length)
  }
}

/** A tiny JSON writer for the result line (numbers, strings, nested maps). */
object Json {
  def apply(v: Any): String = v match {
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case s: Seq[_] => s.map(apply).mkString("[", ", ", "]")
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case other => throw new IllegalArgumentException(s"cannot encode $other")
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")
}
