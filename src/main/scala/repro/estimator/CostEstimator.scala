package repro.estimator

/** The paper's lightweight runtime estimator (§V-B): (predicted iteration
  * count) × (per-iteration polynomial regressor), optionally adjusted
  * online with the asymmetric-kernel GP as actual iteration runtimes stream
  * in. Its memory side is the closed form in `MemoryEstimator`.
  */
final class CostEstimator(q: Int, degree: Int = 4, interactions: Boolean = true)
    extends PerIteration(new PolyRegressor(degree, interactions), q) {

  /** Remaining-runtime monitor (§V-B2): given the actual runtimes of the
    * completed iterations, the per-iteration estimate adjusted by `gp`, or
    * `observed` itself once it covers the prediction.
    */
  def adjustedIterRuntimes(features: TaskFeatures, observed: Array[Double], gp: GpAdjuster): Array[Double] = {
    val predicted = predictIterRuntimes(features)
    if (observed.length >= predicted.length) observed
    else gp.adjust(predicted, observed)
  }
}
