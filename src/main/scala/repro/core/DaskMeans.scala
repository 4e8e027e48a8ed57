package repro.core

import repro.estimator.MemoryEstimator

/** The paper's memory-efficient accelerator (§IV, Algorithm 1).
  *
  * A Ball-tree is built once over the spatial vectors and another over the
  * centroids every iteration, rebuilt in place into the run's one index.
  * Assignment recursively traverses the point tree:
  *
  *  - Eq. 5: a wholly-assigned node stays in its cluster when
  *    ‖N.p* − c_a(N)‖ + N.r < cb[a(N)]/2 (inter bound);
  *  - Eq. 6: otherwise a 2-NN search over the centroid index (with the
  *    upper bound inherited from the parent node, Eq. 7/8) batch-assigns the
  *    node when d2 − d1 > 2·N.r;
  *  - Eq. 4: a point stays when ‖p − c_a(i)‖ < cb[a(i)]/2, else a bounded
  *    1-NN search assigns it.
  *
  * Inter bounds cb[j] are computed with a 2-NN search seeded by the
  * drift-based upper bound of Eq. 9. Cluster means are maintained as dynamic
  * sum vectors; whole nodes move between clusters in O(d). The per-pass
  * machinery lives in [[DaskAssign]] so the Spark layer can run the same
  * step per partition.
  *
  * @param useKnn        false ⇒ the NokNN ablation: centroid searches scan
  *                      all k centroids linearly (no centroid index)
  * @param useInterBound false ⇒ the NoInB ablation: cb[·] is never
  *                      computed and stays zero, so Eq. 4/5 never fire
  * @param leafCapacity  the paper's f (memory-tunable, Eq. 12) for the point
  *                      tree; the centroid index caps it at
  *                      [[CentroidIndex.MaxLeafCapacity]]
  * @param prebuilt      a point index over the data later given to `run`,
  *                      so several runs can share one tree (Table VIII's
  *                      sample generator runs each task twice on one tree)
  */
final class DaskMeans(
    val useKnn: Boolean = true,
    val useInterBound: Boolean = true,
    val leafCapacity: Int = 30,
    prebuilt: Option[BallTree.Built] = None,
) extends KMeansAlgo {

  require(useKnn || useInterBound, "Dask-means needs the centroid index, the inter bounds, or both")

  override def name: String =
    if (!useKnn) "NokNN"
    else if (useInterBound) "Dask-means"
    else "NoInB"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long =
    MemoryEstimator.daskMeansExtraFloats(n, k, d, leafCapacity)

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.Run {
    private val state = new TreeAssignmentState(data, prebuilt.getOrElse(BallTree.build(data, leafCapacity)), k)
    /** Inter bounds (Eq. 3); all zero under NoInB, where a distance ≥ 0 never passes Eq. 4/5. */
    private val cb = new Array[Double](k)
    private var index: CentroidIndex = null

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      if (useKnn) index = CentroidIndex.rebuildOrNew(index, centroids, leafCapacity, counter)
      if (useInterBound) DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, counter)
      DaskAssign.step(state, centroids, cb, index, counter)
    }

    override def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
      state.refine(centroids, drifts)

    override def assignments: Array[Int] = state.materialize()
  }
}
