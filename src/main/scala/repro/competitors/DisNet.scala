package repro.competitors

import repro.estimator.{LinAlg, RuntimeModel}
import scala.util.Random

/** The DisNet baseline [20] as configured in §VI-A: a fully-connected
  * network with hidden layers of 128 and 64 ReLU units trained for 1000
  * epochs at learning rate 1e-4 on the squared loss (Adam optimiser,
  * features and target max-scaled for stability). Epoch-based training is
  * exactly the cost the paper's one-pass estimator avoids.
  *
  * The layers keep their activations between calls, so one instance must
  * not fit or predict on two threads at once.
  */
final class DisNet(epochs: Int = 1000, learningRate: Double = 1e-4) extends RuntimeModel {
  import DisNet._

  private var layers: Array[Dense] = _
  private var xScale: Array[Double] = _
  private var yScale: Double = 1.0

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): this.type = {
    require(xs.nonEmpty && xs.length == ys.length, "need matching samples")
    val rnd = new Random(Seed)
    val nf = xs(0).length
    xScale = LinAlg.maxAbsScales(xs)
    yScale = math.max(1e-12, ys.map(math.abs).max)
    val sx = xs.map(scaled)
    val sy = ys.map(_ / yScale)
    layers = Array(new Dense(nf, Hidden1, relu = true, rnd), new Dense(Hidden1, Hidden2, relu = true, rnd),
      new Dense(Hidden2, 1, relu = false, rnd))

    var step = 0
    var epoch = 0
    while (epoch < epochs) {
      var s = 0
      while (s < sx.length) {
        layers.last.grad(0) = 2 * (forward(sx(s)) - sy(s))
        // every gradient comes from the pre-update weights
        var l = layers.length - 1
        while (l > 0) { layers(l).backward(layers(l - 1).grad); l -= 1 }
        step += 1
        val corr = learningRate * math.sqrt(1 - math.pow(Beta2, step)) / (1 - math.pow(Beta1, step))
        layers.foreach(_.update(corr))
        s += 1
      }
      epoch += 1
    }
    this
  }

  override def predict(x: Array[Double]): Double = forward(scaled(x)) * yScale

  private def scaled(x: Array[Double]): Array[Double] = Array.tabulate(x.length)(i => x(i) / xScale(i))

  private def forward(x: Array[Double]): Double = layers.foldLeft(x)((a, l) => l.forward(a))(0)
}

object DisNet {
  private val Hidden1 = 128
  private val Hidden2 = 64
  private val Seed = 29L
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8

  /** One fully-connected layer with its Adam state. `forward` keeps its
    * input and output for `backward` and `update`; `grad` holds the loss
    * gradient w.r.t. the layer's pre-activations.
    */
  private final class Dense(inputs: Int, units: Int, relu: Boolean, rnd: Random) {
    private val w = Array.fill(units)(Array.fill(inputs)((rnd.nextDouble() * 2 - 1) * math.sqrt(2.0 / inputs)))
    private val b = new Array[Double](units)
    private val mW = Array.ofDim[Double](units, inputs)
    private val vW = Array.ofDim[Double](units, inputs)
    private val mB = new Array[Double](units)
    private val vB = new Array[Double](units)
    private var in: Array[Double] = _
    private val out = new Array[Double](units)
    val grad = new Array[Double](units)

    def forward(x: Array[Double]): Array[Double] = {
      in = x
      var i = 0
      while (i < units) {
        var z = b(i); val row = w(i)
        var j = 0
        while (j < inputs) { z += row(j) * x(j); j += 1 }
        out(i) = if (!relu || z > 0) z else 0.0
        i += 1
      }
      out
    }

    /** Writes the gradient w.r.t. the previous ReLU layer's
      * pre-activations into `prevGrad`; a unit with zero gradient adds
      * nothing.
      */
    def backward(prevGrad: Array[Double]): Unit = {
      java.util.Arrays.fill(prevGrad, 0.0)
      var i = 0
      while (i < units) {
        if (grad(i) != 0.0) {
          val row = w(i)
          var j = 0
          while (j < inputs) { if (in(j) > 0) prevGrad(j) += grad(i) * row(j); j += 1 }
        }
        i += 1
      }
    }

    /** One Adam step on every parameter, in place. A ReLU unit with zero
      * gradient skips its step (a lazy Adam: its moments do not decay).
      */
    def update(corr: Double): Unit = {
      var i = 0
      while (i < units) {
        val gz = grad(i)
        if (!relu || gz != 0.0) {
          val row = w(i); val mr = mW(i); val vr = vW(i)
          var j = 0
          while (j < inputs) { row(j) -= adam(mr, vr, j, gz * in(j), corr); j += 1 }
          b(i) -= adam(mB, vB, i, gz, corr)
        }
        i += 1
      }
    }
  }

  /** Updates the moments `m(k)` and `v(k)` with gradient `g` and returns
    * the step to subtract from the parameter.
    */
  private def adam(m: Array[Double], v: Array[Double], k: Int, g: Double, corr: Double): Double = {
    m(k) = Beta1 * m(k) + (1 - Beta1) * g
    v(k) = Beta2 * v(k) + (1 - Beta2) * g * g
    corr * m(k) / (math.sqrt(v(k)) + Eps)
  }
}
