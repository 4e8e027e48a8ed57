package repro.core

import repro.SparkSpec
import repro.spatial.SpatialData

/** Ball-trees pinned node for node on the benchmark's stand-in datasets. */
class TreePinSpec extends SparkSpec {

  test("point trees and a centroid index pinned node for node on T-drive and Argo-PC stand-ins") {
    val tdrive = SpatialData.collectPoints(SpatialData.dataset(spark, "T-drive", 20000))
    val argopc = SpatialData.collectPoints(SpatialData.dataset(spark, "Argo-PC", 20000))
    val index = new CentroidIndex(KMeans.initCentroids(tdrive, 5000, 1L), 30, new DistanceCounter)
    val got = Seq(
      "T-drive f=30" -> BallTree.build(tdrive, 30),
      "Argo-PC f=30" -> BallTree.build(argopc, 30),
      "T-drive centroids k=5000" -> index.built,
    ).map { case (label, t) => label -> (t.nodeCount, Trees.pin(t)) }
    // Recorded while leaves still held copies of their members.
    val pinned = Map(
      "T-drive f=30" -> (2035, 1406376012),
      "Argo-PC f=30" -> (2187, 647191642),
      "T-drive centroids k=5000" -> (1863, -1606157258),
    )
    assert(got.toMap == pinned)
  }
}
