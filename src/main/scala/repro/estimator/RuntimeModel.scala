package repro.estimator

/** A runtime regressor: fit on (feature vector → runtime) pairs, predict a
  * scalar runtime. The paper's polynomial regressor and the SOTA predictors
  * it compares against (Fig. 11) all implement it.
  */
trait RuntimeModel {
  def fit(xs: Array[Array[Double]], ys: Array[Double]): this.type
  def predict(x: Array[Double]): Double

  /** Train on whole-task totals (the SOTA models' original formulation). */
  def fitTotals(samples: Array[TaskSample]): this.type =
    fit(samples.map(_.features.iterationVector), samples.map(_.totalMs))

  def predictTotal(features: TaskFeatures): Double =
    math.max(0.0, predict(features.iterationVector))
}

/** The per-iteration runtime scheme of §V-B1 (Eq. 13): a linear regressor
  * predicts the iteration count v, capped at the maximum q, and `base`,
  * trained on each iteration's runtime (feature vector + iteration index),
  * predicts ŷ_1..ŷ_v, which sum into the total. Over `PolyRegressor` this
  * is the paper's estimator; over a SOTA model it is that model's "S-"
  * variant (§VI-A).
  */
class PerIteration(base: RuntimeModel, q: Int) {
  require(q >= 1, "maximum iteration count must be >= 1")

  private val iterationModel = new PolyRegressor(degree = 1, interactions = false, ridge = 1e-9)

  /** One pass over the sample set fits both regressors (the paper's point:
    * no epoch-based training).
    */
  def fit(samples: Array[TaskSample]): this.type = {
    require(samples.nonEmpty, "need samples")
    iterationModel.fit(samples.map(_.features.iterationVector), samples.map(_.iterations.toDouble))
    val xs = samples.flatMap(s => s.iterRuntimesMs.indices.map(i => s.features.runtimeVector(i + 1)))
    val ys = samples.flatMap(_.iterRuntimesMs)
    base.fit(xs, ys)
    this
  }

  /** Per-iteration runtime prediction ŷ_1..ŷ_v, each clamped at 0. */
  def predictIterRuntimes(features: TaskFeatures): Array[Double] = {
    val v = math.max(1, math.min(q, math.round(iterationModel.predict(features.iterationVector)).toInt))
    Array.tabulate(v)(i => math.max(0.0, base.predict(features.runtimeVector(i + 1))))
  }

  def predictTotalMs(features: TaskFeatures): Double = predictIterRuntimes(features).sum
}
