package repro.estimator

/** The paper's lightweight runtime estimator (§V-B): (predicted iteration
  * count) × (per-iteration polynomial regressor), optionally adjusted
  * online with the asymmetric-kernel GP as actual iteration runtimes stream
  * in. Its memory side is the closed form in `MemoryEstimator`.
  */
final class CostEstimator(q: Int, degree: Int = 4, interactions: Boolean = true, sigma: Double = 50.0)
    extends PerIteration(new PolyRegressor(degree, interactions), q) {
  private val gp = new GpAdjuster(sigma)

  /** Remaining-runtime monitor (§V-B2): with actual runtimes of completed
    * iterations, returns the adjusted estimate of the task total.
    */
  def adjustedTotalMs(features: TaskFeatures, observed: Array[Double]): Double = {
    val predicted = predictIterRuntimes(features)
    if (observed.length >= predicted.length) observed.sum
    else gp.adjust(predicted, observed).sum
  }
}
