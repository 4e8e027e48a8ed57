package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, xxhash64}
import repro.SparkSpec
import repro.baselines.Lloyd
import repro.core.Vec
import repro.spatial.SpatialData

class SimplifySpec extends SparkSpec {

  /** Random-sampling simplification: the paper's Fig. 1 strawman, k rows
    * picked by a seeded hash of the id.
    */
  private def randomSample(df: DataFrame, k: Int): DataFrame =
    df.orderBy(xxhash64(col("id"), lit(42L))).limit(k).select("id", "features")

  test("simplify returns k representatives whose weights sum to n") {
    val df = SpatialData.dataset(spark, "Argo-PC", 2000)
    val out = Simplify.simplify(df, k = 25, maxIters = 5).collect()
    assert(out.length == 25)
    assert(out.map(_.getLong(2)).sum == 2000)
    out.foreach(r => assert(r.getSeq[Double](1).size == 3))
  }

  test("weights are the serial cluster sizes at the last assignment phase") {
    val df = SpatialData.dataset(spark, "Argo-PC", 2000)
    val data = SpatialData.collectPoints(df)
    val (k, maxIters) = (25, 3)
    val init = DistributedDaskMeans.initialCentroids(df, k, 42L)
    val ref = new Lloyd().run(data, k, maxIters, init)
    // Not converged: the final centroids would move some vectors.
    assert(data.indices.exists(i => Vec.nearest(data(i), ref.centroids) != ref.assignments(i)))
    val before = PartitionIndexCache.size
    val out = Simplify.simplify(df, k, maxIters).collect()
    assert(PartitionIndexCache.size == before)
    val sizes = new Array[Long](k)
    ref.assignments.foreach(a => sizes(a) += 1)
    assert(out.map(_.getInt(0)).sameElements(0 until k))
    assert(out.map(_.getLong(2)).sameElements(sizes))
    out.foreach { r =>
      val (got, want) = (r.getSeq[Double](1), ref.centroids(r.getInt(0)))
      assert(got.indices.forall(c => math.abs(got(c) - want(c)) <= 1e-9 * math.max(1.0, math.abs(want(c)))),
        s"centroid ${r.getInt(0)}")
    }
  }

  test("randomSample returns k rows deterministically") {
    val df = SpatialData.dataset(spark, "T-drive", 1000)
    val a = randomSample(df, 50).collect().map(_.getLong(0)).sorted
    val b = randomSample(df, 50).collect().map(_.getLong(0)).sorted
    assert(a.length == 50 && a.sameElements(b))
  }

  test("k-means representatives cover the data better than random sampling (Fig. 1)") {
    val df = SpatialData.dataset(spark, "Porto", 4000)
    val data = SpatialData.collectPoints(df)
    val k = 60
    val centroids = Simplify.simplify(df, k, maxIters = 8).collect().map(_.getSeq[Double](1).toArray)
    val sampled = randomSample(df, k).collect().map(_.getSeq[Double](1).toArray)
    def coverage(reps: Array[Array[Double]]): Double =
      data.map(p => reps.map(r => Vec.dist2(p, r)).min).sum
    val cKm = coverage(centroids)
    val cRand = coverage(sampled)
    assert(cKm < cRand, s"k-means coverage $cKm should beat random $cRand")
  }
}
