package repro.estimator

/** Runtime adjustment with a Gaussian Process over the ratio
  * g(i) = ŷ_i / y_i (§V-B2).
  *
  * Prior mean is the constant 1 (perfect prediction). The kernel is the
  * paper's *asymmetric* one (Eq. 20–21): information from a completed
  * iteration i propagates only forward — cov(i, i') = 0 for i' − i ≤ −1 and
  * exp(−h(i'−i)²/2σ²) otherwise, with h(δ) = ln(δ+1) on (−1, 0] and δ on
  * (0, ∞) so the kernel stays continuously differentiable at the seam.
  */
final class GpAdjuster(sigma: Double = 50.0) {
  import GpAdjuster.Noise

  /** Eq. 21. */
  def h(delta: Double): Double = {
    require(delta > -1, s"h undefined at delta=$delta")
    if (delta <= 0) math.log(delta + 1) else delta
  }

  /** Eq. 20: covariance from completed iteration i to iteration i'. */
  def cov(i: Double, iPrime: Double): Double = {
    val delta = iPrime - i
    if (delta <= -1) 0.0
    else { val hv = h(delta); math.exp(-hv * hv / (2 * sigma * sigma)) }
  }

  /** Posterior mean of g at targets, given observed (iteration, gValue)
    * pairs. Solves the (asymmetric) kernel system directly.
    */
  def posterior(observedIters: Array[Int], observedG: Array[Double], targets: Array[Int]): Array[Double] = {
    val t = observedIters.length
    if (t == 0) return targets.map(_ => 1.0)
    val kMat = Array.tabulate(t, t)((a, b) => cov(observedIters(a).toDouble, observedIters(b).toDouble) + (if (a == b) Noise else 0.0))
    val rhs = observedG.map(_ - 1.0)
    val w =
      try LinAlg.solve(kMat, rhs)
      catch { case _: ArithmeticException => rhs.map(_ / (1.0 + Noise)) }
    targets.map { tp =>
      var s = 1.0
      var a = 0
      while (a < t) { s += cov(observedIters(a).toDouble, tp.toDouble) * w(a); a += 1 }
      s
    }
  }

  /** Adjust per-iteration runtime predictions given the actual runtimes of
    * the first `observed.length` iterations: completed slots are replaced
    * by their actual values, future slots are divided by the posterior
    * ratio ĝ (g = predicted/actual, so ĝ > 1 ⇒ the model overestimates
    * and future predictions shrink). Returns the adjusted full vector.
    */
  def adjust(predicted: Array[Double], observed: Array[Double]): Array[Double] = {
    val t = observed.length
    require(t <= predicted.length, "more observations than predictions")
    if (t == 0) return predicted.clone()
    val obsIters = Array.tabulate(t)(_ + 1)
    val g = Array.tabulate(t)(i => predicted(i) / math.max(1e-9, observed(i)))
    val futures = Array.tabulate(predicted.length - t)(i => t + 1 + i)
    val gHat = posterior(obsIters, g, futures)
    val out = new Array[Double](predicted.length)
    var i = 0
    while (i < t) { out(i) = observed(i); i += 1 }
    while (i < predicted.length) {
      val gh = math.max(0.1, gHat(i - t)) // keep the correction bounded
      out(i) = predicted(i) / gh
      i += 1
    }
    out
  }
}

object GpAdjuster {

  /** Observation noise added to the kernel diagonal. */
  private val Noise = 1e-3
}
