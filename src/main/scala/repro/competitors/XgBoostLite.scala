package repro.competitors

import repro.estimator.RuntimeModel
import scala.util.Random

/** Gradient-boosted regression trees reproducing the paper's XGBoost
  * baseline configuration (§VI-A): 100 trees, max depth 5, learning rate
  * 0.1, column sampling 0.3 per tree, squared loss (so each tree fits the
  * residual).
  */
final class XgBoostLite(
    val numTrees: Int = 100,
    val maxDepth: Int = 5,
    val learningRate: Double = 0.1,
    val colSample: Double = 0.3,
    val minSamplesLeaf: Int = 2,
    seed: Long = 13L,
) extends RuntimeModel {
  import XgBoostLite._

  private var trees: List[Node] = Nil
  private var base: Double = 0.0

  private def meanOf(ys: Array[Double], idx: Array[Int]): Double = {
    var s = 0.0; idx.foreach(i => s += ys(i)); s / math.max(1, idx.length)
  }

  private def buildTree(
      xs: Array[Array[Double]],
      residual: Array[Double],
      idx: Array[Int],
      depth: Int,
      features: Array[Int],
  ): Node = {
    if (depth >= maxDepth || idx.length < 2 * minSamplesLeaf) return Leaf(meanOf(residual, idx))
    var bestGain = 1e-12
    var bestFeature = -1
    var bestThreshold = 0.0
    val totalSum = { var s = 0.0; idx.foreach(i => s += residual(i)); s }
    val totalSq = totalSum * totalSum / idx.length
    features.foreach { f =>
      val sorted = idx.sortBy(i => xs(i)(f))
      var leftSum = 0.0
      var x = 0
      while (x < sorted.length - 1) {
        leftSum += residual(sorted(x))
        val nl = x + 1
        if (nl >= minSamplesLeaf && sorted.length - nl >= minSamplesLeaf &&
            xs(sorted(x))(f) < xs(sorted(x + 1))(f)) {
          val rightSum = totalSum - leftSum
          val gain = leftSum * leftSum / nl + rightSum * rightSum / (sorted.length - nl) - totalSq
          if (gain > bestGain) {
            bestGain = gain; bestFeature = f
            bestThreshold = (xs(sorted(x))(f) + xs(sorted(x + 1))(f)) / 2
          }
        }
        x += 1
      }
    }
    if (bestFeature < 0) return Leaf(meanOf(residual, idx))
    val (li, ri) = idx.partition(i => xs(i)(bestFeature) <= bestThreshold)
    Split(bestFeature, bestThreshold,
      buildTree(xs, residual, li, depth + 1, features),
      buildTree(xs, residual, ri, depth + 1, features))
  }

  private def evalTree(node: Node, x: Array[Double]): Double = node match {
    case Leaf(v)                => v
    case Split(f, thr, l, r)    => if (x(f) <= thr) evalTree(l, x) else evalTree(r, x)
  }

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): this.type = {
    require(xs.nonEmpty && xs.length == ys.length, "need matching samples")
    val rnd = new Random(seed)
    val nf = xs(0).length
    base = ys.sum / ys.length
    val pred = Array.fill(ys.length)(base)
    val built = scala.collection.mutable.ListBuffer.empty[Node]
    val all = Array.tabulate(ys.length)(identity)
    var t = 0
    while (t < numTrees) {
      val residual = Array.tabulate(ys.length)(i => ys(i) - pred(i))
      val nCols = math.max(1, math.round(nf * colSample).toInt)
      val cols = rnd.shuffle((0 until nf).toList).take(nCols).toArray
      val tree = buildTree(xs, residual, all, 0, cols)
      built += tree
      var i = 0
      while (i < ys.length) { pred(i) += learningRate * evalTree(tree, xs(i)); i += 1 }
      t += 1
    }
    trees = built.toList
    this
  }

  override def predict(x: Array[Double]): Double =
    base + learningRate * trees.map(evalTree(_, x)).sum
}

object XgBoostLite {
  private sealed trait Node
  private final case class Leaf(value: Double) extends Node
  private final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node
}
