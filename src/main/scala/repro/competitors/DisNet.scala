package repro.competitors

import repro.estimator.{LinAlg, RuntimeModel}
import scala.util.Random

/** The DisNet baseline [20] as configured in §VI-A: a fully-connected
  * network with hidden layers of 128 and 64 ReLU units trained for 1000
  * epochs at learning rate 1e-4 on the squared loss (Adam optimiser,
  * features and target max-scaled for stability). Epoch-based training is
  * exactly the cost the paper's one-pass estimator avoids.
  */
final class DisNet(epochs: Int = 1000, learningRate: Double = 1e-4) extends RuntimeModel {
  import DisNet._

  private var w1: Array[Array[Double]] = _
  private var b1: Array[Double] = _
  private var w2: Array[Array[Double]] = _
  private var b2: Array[Double] = _
  private var w3: Array[Double] = _
  private var b3: Double = 0.0
  private var xScale: Array[Double] = _
  private var yScale: Double = 1.0

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): this.type = {
    require(xs.nonEmpty && xs.length == ys.length, "need matching samples")
    val rnd = new Random(Seed)
    val nf = xs(0).length
    xScale = LinAlg.maxAbsScales(xs)
    yScale = math.max(1e-12, ys.map(math.abs).max)
    val sx = xs.map(r => Array.tabulate(nf)(i => r(i) / xScale(i)))
    val sy = ys.map(_ / yScale)

    def mat(rows: Int, cols: Int, scale: Double): Array[Array[Double]] =
      Array.fill(rows)(Array.fill(cols)((rnd.nextDouble() * 2 - 1) * scale))
    w1 = mat(Hidden1, nf, math.sqrt(2.0 / nf)); b1 = new Array[Double](Hidden1)
    w2 = mat(Hidden2, Hidden1, math.sqrt(2.0 / Hidden1)); b2 = new Array[Double](Hidden2)
    w3 = Array.fill(Hidden2)((rnd.nextDouble() * 2 - 1) * math.sqrt(2.0 / Hidden2)); b3 = 0.0

    // Adam state
    val beta1 = 0.9; val beta2 = 0.999; val eps = 1e-8
    val mW1 = mat(Hidden1, nf, 0); val vW1 = mat(Hidden1, nf, 0)
    val mB1 = new Array[Double](Hidden1); val vB1 = new Array[Double](Hidden1)
    val mW2 = mat(Hidden2, Hidden1, 0); val vW2 = mat(Hidden2, Hidden1, 0)
    val mB2 = new Array[Double](Hidden2); val vB2 = new Array[Double](Hidden2)
    val mW3 = new Array[Double](Hidden2); val vW3 = new Array[Double](Hidden2)
    var mB3 = 0.0; var vB3 = 0.0
    var step = 0

    val h1 = new Array[Double](Hidden1)
    val h2 = new Array[Double](Hidden2)
    val g2 = new Array[Double](Hidden2)
    val g1 = new Array[Double](Hidden1)

    var epoch = 0
    while (epoch < epochs) {
      var s = 0
      while (s < sx.length) {
        val x = sx(s)
        // forward
        var i = 0
        while (i < Hidden1) {
          var z = b1(i); val row = w1(i)
          var j = 0
          while (j < nf) { z += row(j) * x(j); j += 1 }
          h1(i) = if (z > 0) z else 0.0
          i += 1
        }
        i = 0
        while (i < Hidden2) {
          var z = b2(i); val row = w2(i)
          var j = 0
          while (j < Hidden1) { z += row(j) * h1(j); j += 1 }
          h2(i) = if (z > 0) z else 0.0
          i += 1
        }
        var out = b3
        i = 0
        while (i < Hidden2) { out += w3(i) * h2(i); i += 1 }
        val dOut = 2 * (out - sy(s))

        // backward
        i = 0
        while (i < Hidden2) { g2(i) = if (h2(i) > 0) dOut * w3(i) else 0.0; i += 1 }
        java.util.Arrays.fill(g1, 0.0)
        i = 0
        while (i < Hidden2) {
          if (g2(i) != 0.0) {
            val row = w2(i)
            var j = 0
            while (j < Hidden1) { if (h1(j) > 0) g1(j) += g2(i) * row(j); j += 1 }
          }
          i += 1
        }

        step += 1
        val corr = learningRate * math.sqrt(1 - math.pow(beta2, step)) / (1 - math.pow(beta1, step))
        @inline def adam(m: Double, v: Double, g: Double): (Double, Double, Double) = {
          val m2 = beta1 * m + (1 - beta1) * g
          val v2 = beta2 * v + (1 - beta2) * g * g
          (m2, v2, corr * m2 / (math.sqrt(v2) + eps))
        }

        // output layer
        i = 0
        while (i < Hidden2) {
          val g = dOut * h2(i)
          val (m2, v2, d) = adam(mW3(i), vW3(i), g); mW3(i) = m2; vW3(i) = v2; w3(i) -= d
          i += 1
        }
        { val (m2, v2, d) = adam(mB3, vB3, dOut); mB3 = m2; vB3 = v2; b3 -= d }
        // hidden 2
        i = 0
        while (i < Hidden2) {
          if (g2(i) != 0.0) {
            val gz = g2(i) // uses pre-update weights, like the g1 pass
            val row = w2(i); val mr = mW2(i); val vr = vW2(i)
            var j = 0
            while (j < Hidden1) {
              val g = gz * h1(j)
              val (m2, v2, d) = adam(mr(j), vr(j), g); mr(j) = m2; vr(j) = v2; row(j) -= d
              j += 1
            }
            val (m2, v2, d) = adam(mB2(i), vB2(i), gz); mB2(i) = m2; vB2(i) = v2; b2(i) -= d
          }
          i += 1
        }
        // hidden 1
        i = 0
        while (i < Hidden1) {
          if (h1(i) > 0 && g1(i) != 0.0) {
            val gz = g1(i)
            val row = w1(i); val mr = mW1(i); val vr = vW1(i)
            var j = 0
            while (j < nf) {
              val g = gz * x(j)
              val (m2, v2, d) = adam(mr(j), vr(j), g); mr(j) = m2; vr(j) = v2; row(j) -= d
              j += 1
            }
            val (m2, v2, d) = adam(mB1(i), vB1(i), gz); mB1(i) = m2; vB1(i) = v2; b1(i) -= d
          }
          i += 1
        }
        s += 1
      }
      epoch += 1
    }
    this
  }

  override def predict(x: Array[Double]): Double = {
    val nf = x.length
    val sx = Array.tabulate(nf)(i => x(i) / xScale(i))
    val h1 = Array.tabulate(w1.length) { i =>
      var z = b1(i); val row = w1(i)
      var j = 0
      while (j < nf) { z += row(j) * sx(j); j += 1 }
      if (z > 0) z else 0.0
    }
    val h2 = Array.tabulate(w2.length) { i =>
      var z = b2(i); val row = w2(i)
      var j = 0
      while (j < h1.length) { z += row(j) * h1(j); j += 1 }
      if (z > 0) z else 0.0
    }
    var out = b3
    var i = 0
    while (i < h2.length) { out += w3(i) * h2(i); i += 1 }
    out * yScale
  }
}

object DisNet {
  private val Hidden1 = 128
  private val Hidden2 = 64
  private val Seed = 29L
}
